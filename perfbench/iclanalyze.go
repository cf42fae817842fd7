package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"time"

	"rsnrobust/internal/benchnets"
	"rsnrobust/internal/faults"
	"rsnrobust/internal/icl"
	"rsnrobust/internal/rsn"
	"rsnrobust/internal/spec"
	"rsnrobust/internal/sptree"
)

// iclDeck is the icl-analyze deck: ICL text from p93791 (0.13 MB) up to
// MBIST_55_20_5 (14.6 MB), across both fault universes. The three large
// designs use the control universe because the dominator engine that
// checks the damages (faults.AnalyzeGraph) falls back to per-fault
// reachability on SIB-coupled segments and needs minutes for their
// every-primitive universes; under the control universe it takes
// milliseconds.
var iclDeck = []struct {
	name  string
	scope faults.Scope
}{
	{"p93791", faults.ScopeAll},
	{"MBIST_5_20_20", faults.ScopeAll},
	{"MBIST_20_20_20", faults.ScopeControl},
	{"MBIST_100_20_5", faults.ScopeControl},
	{"MBIST_55_20_5", faults.ScopeControl},
}

const (
	iclTailPct   = 90
	iclSetupReps = 3
)

type iclInput struct {
	label string
	entry benchnets.Entry
	text  []byte
	sp    *spec.Spec
	opts  faults.Options
}

// iclSource renders a deck design as ICL text.
func iclSource(name string) (benchnets.Entry, []byte, error) {
	e, ok := benchnets.Lookup(name)
	if !ok {
		return e, nil, fmt.Errorf("icl-analyze: unknown network %s", name)
	}
	net, err := benchnets.GenerateEntry(e)
	if err != nil {
		return e, nil, err
	}
	var buf bytes.Buffer
	if err := icl.Write(&buf, net); err != nil {
		return e, nil, err
	}
	return e, buf.Bytes(), nil
}

// setupICL writes each design's ICL once and parses it once (the
// warm-up), generating the specification on the parsed network; parsing
// is deterministic, so node IDs match in every later parse.
func setupICL(seed int64) ([]iclInput, error) {
	var ins []iclInput
	for i, d := range iclDeck {
		e, text, err := iclSource(d.name)
		if err != nil {
			return nil, err
		}
		net, err := icl.Parse(bytes.NewReader(text))
		if err != nil {
			return nil, err
		}
		sp, err := spec.Generate(net, spec.PaperGenOptions(splitmix(seed, 100+i)))
		if err != nil {
			return nil, err
		}
		opts := faults.DefaultOptions()
		opts.Scope = d.scope
		ins = append(ins, iclInput{label: d.name + "/" + d.scope.String(), entry: e, text: text, sp: sp, opts: opts})
	}
	return ins, nil
}

// iclResult is what one icl-analyze operation produced.
type iclResult struct {
	net *rsn.Network
	a   *faults.Analysis
}

// analyzeICL is one operation: parse, validate, SP-tree, criticality.
// With a tracer, each call gets a span.
func analyzeICL(tr *tracer, op int64, in *iclInput) (iclResult, error) {
	root := tr.begin("op", -1, op)
	defer tr.end(root)
	s := tr.begin("icl.Parse", root, op)
	net, err := icl.Parse(bytes.NewReader(in.text))
	tr.end(s)
	if err != nil {
		return iclResult{}, err
	}
	s = tr.begin("rsn.Validate", root, op)
	err = rsn.Validate(net)
	tr.end(s)
	if err != nil {
		return iclResult{}, err
	}
	s = tr.begin("sptree.Build", root, op)
	tree, err := sptree.Build(net)
	tr.end(s)
	if err != nil {
		return iclResult{}, err
	}
	s = tr.begin("faults.Analyze", root, op)
	a, err := faults.Analyze(net, tree, in.sp, in.opts)
	tr.end(s)
	if err != nil {
		return iclResult{}, err
	}
	return iclResult{net, a}, nil
}

// damageDigest hashes an analysis' per-primitive damages and critical
// flags, so later passes can be compared with the first.
func damageDigest(a *faults.Analysis) string {
	h := sha256.New()
	for _, id := range a.Prims {
		fmt.Fprintln(h, id, a.Damage[id], a.CritHit[id])
	}
	fmt.Fprintln(h, a.TotalDamage)
	return hex.EncodeToString(h.Sum(nil))
}

func runICLAnalyze(cfg config) (*report, error) {
	ins, setupS, err := setupMedian(iclSetupReps, func() ([]iclInput, error) { return setupICL(cfg.seed) }, func([]iclInput) {})
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.metrics["setup_s"] = setupS
	rep.layers = []string{"icl", "rsn", "sptree", "faults", "trace"}

	// digests keeps each design's first damage digest; the oracle checks
	// each design's first result, and later passes must repeat it.
	digests := make([]string, len(ins))
	failedItem := make([]bool, len(ins))
	var cpuMS, passSec []float64
	var item []int
	var bad []bool
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < cfg.seconds || len(cpuMS) < minSamples(iclTailPct); pass++ {
		passSec = append(passSec, 0)
		for i := range ins {
			in := &ins[i]
			settle()
			c0 := cpuTime()
			res, err := analyzeICL(nil, 0, in)
			d := cpuTime() - c0
			passSec[pass] += d.Seconds()
			cpuMS = append(cpuMS, ms(d))
			item = append(item, i)
			bad = append(bad, err != nil)
			if err != nil {
				rep.problem("%s pass %d: %v", in.label, pass, err)
				continue
			}
			dg := damageDigest(res.a)
			switch {
			case digests[i] == "":
				digests[i] = dg
				if err := iclOracle(in, res); err != nil {
					rep.problem("%s: %v", in.label, err)
					failedItem[i] = true
				}
			case dg != digests[i]:
				rep.problem("%s pass %d: damages differ from the first pass", in.label, pass)
				bad[len(bad)-1] = true
			}
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.metrics["peak_rss_mb"] = rss
	rep.cpuTimes(cpuMS, iclTailPct)
	rep.metrics["ops_per_cpu_s"] = passRate(len(ins), passSec)
	rep.metrics["hv_ratio"] = 1 // no hardening runs here; see METRICS.md

	for i := range ins {
		rep.count("%s %s", ins[i].label, digests[i])
		if digests[i] == "" {
			failedItem[i] = true // every operation failed; already reported
		}
	}
	for k := range cpuMS {
		if failedItem[item[k]] || bad[k] {
			rep.failed++
		}
	}
	rep.attempted = len(cpuMS)

	if cfg.trace {
		if err := traceICL(cfg, ins, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// iclOracle checks one design: parsed segment and mux counts against its
// Table I entry, and the damages per primitive against the dominator
// engine.
func iclOracle(in *iclInput, res iclResult) error {
	st := res.net.Stats()
	if st.Segments != in.entry.Segments || st.Muxes != in.entry.Muxes {
		return fmt.Errorf("parsed %d segments / %d muxes, Table I lists %d / %d", st.Segments, st.Muxes, in.entry.Segments, in.entry.Muxes)
	}
	g, err := faults.AnalyzeGraph(res.net, in.sp, in.opts)
	if err != nil {
		return fmt.Errorf("dominator engine: %w", err)
	}
	if len(g.Prims) != len(res.a.Prims) {
		return fmt.Errorf("%d primitives, the dominator engine finds %d", len(res.a.Prims), len(g.Prims))
	}
	for k, id := range res.a.Prims {
		if g.Prims[k] != id || g.Damage[id] != res.a.Damage[id] || g.CritHit[id] != res.a.CritHit[id] {
			return fmt.Errorf("primitive %d: damage %d critical %v, the dominator engine says %d %v",
				id, res.a.Damage[id], res.a.CritHit[id], g.Damage[id], g.CritHit[id])
		}
	}
	if g.TotalDamage != res.a.TotalDamage {
		return fmt.Errorf("total damage %d, the dominator engine says %d", res.a.TotalDamage, g.TotalDamage)
	}
	return nil
}

// traceICL is the traced phase: the same operations with a span around
// every call into icl, rsn, sptree and faults, each followed by the same
// operation untraced, so the overhead compares neighbouring runs.
func traceICL(cfg config, ins []iclInput, rep *report) error {
	tr := newTracer()
	var passSec, passPlain []float64
	var bytesParsed, prims float64
	start := time.Now()
	op := int64(0)
	for pass := 0; pass == 0 || time.Since(start) < cfg.seconds; pass++ {
		passSec, passPlain = append(passSec, 0), append(passPlain, 0)
		for i := range ins {
			op++
			settle()
			c0 := cpuTime()
			res, err := analyzeICL(tr, op, &ins[i])
			passSec[pass] += (cpuTime() - c0).Seconds()
			if err != nil {
				return fmt.Errorf("traced %s: %w", ins[i].label, err)
			}
			settle()
			c0 = cpuTime()
			if _, err := analyzeICL(nil, 0, &ins[i]); err != nil {
				return fmt.Errorf("%s: %w", ins[i].label, err)
			}
			passPlain[pass] += (cpuTime() - c0).Seconds()
			bytesParsed += float64(len(ins[i].text))
			prims += float64(len(res.a.Prims))
		}
	}
	parse, n := tr.meanMS("icl.Parse")
	rep.metrics["icl.parse_ms"] = parse
	rep.metrics["icl.mb_per_s"] = bytesParsed / (1 << 20) / (parse * float64(n) / 1000)
	v, _ := tr.meanMS("rsn.Validate")
	rep.metrics["rsn.validate_ms"] = v
	v, _ = tr.meanMS("sptree.Build")
	rep.metrics["sptree.build_ms"] = v
	v, n = tr.meanMS("faults.Analyze")
	rep.metrics["faults.analyze_ms"] = v
	rep.metrics["faults.prims_per_ms"] = prims / (v * float64(n))
	untracedOps, tracedOps := passRate(len(ins), passPlain), passRate(len(ins), passSec)
	rep.metrics["trace.overhead_pct"] = 100 * (untracedOps - tracedOps) / untracedOps
	return tr.write(filepath.Join(cfg.root, ".bench_build", "traces", fmt.Sprintf("icl-analyze-seed%d.jsonl", cfg.seed)))
}
