package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"rsnrobust/internal/benchnets"
	"rsnrobust/internal/core"
	"rsnrobust/internal/faults"
	"rsnrobust/internal/moea"
	"rsnrobust/internal/rsn"
	"rsnrobust/internal/spec"
	"rsnrobust/internal/sptree"
)

// evolveDeck is the table1-evolve deck: Table I rows under the control
// universe, and the every-primitive universe on designs whose genomes
// run from 1.9k to 12.2k bits. MBIST_2_20_20 has no tractable exact
// front, so it is left out of hv_ratio; its front is still checked.
var evolveDeck = []struct {
	name  string
	scope faults.Scope
	exact bool
}{
	{"TreeBalanced", faults.ScopeControl, true},
	{"p34392", faults.ScopeControl, true},
	{"p22810", faults.ScopeControl, true},
	{"p93791", faults.ScopeControl, true},
	{"p93791", faults.ScopeAll, true},
	{"MBIST_5_5_5", faults.ScopeAll, true},
	{"MBIST_2_20_20", faults.ScopeAll, false},
}

const (
	evolveTailPct   = 90
	evolveSetupReps = 11
)

// quickBudget is the quick generation budget of the Table I harness:
// the paper's budget capped at 150 generations, 60 above 10k primitives.
func quickBudget(e benchnets.Entry) int {
	limit := 150
	if e.Segments+e.Muxes > 10000 {
		limit = 60
	}
	return min(e.Generations, limit)
}

// evolveInput is one operation's input: a deck row with the
// specification and synthesis options of one pass.
type evolveInput struct {
	label string
	entry benchnets.Entry
	net   *rsn.Network
	sp    *spec.Spec
	opt   core.Options
	exact bool
}

// evolveNets generates the deck's networks.
func evolveNets() ([]evolveInput, error) {
	var ins []evolveInput
	for _, d := range evolveDeck {
		e, ok := benchnets.Lookup(d.name)
		if !ok {
			return nil, fmt.Errorf("table1-evolve: unknown network %s", d.name)
		}
		net, err := benchnets.GenerateEntry(e)
		if err != nil {
			return nil, err
		}
		opt := core.DefaultOptions(quickBudget(e), 0)
		opt.Workers = 1
		opt.Analysis.Scope = d.scope
		ins = append(ins, evolveInput{label: d.name + "/" + d.scope.String(), entry: e, net: net, opt: opt, exact: d.exact})
	}
	return ins, nil
}

// forPass returns row i's input for one pass: every pass draws fresh
// specification and option seeds from the workload seed, so a run
// averages over many specifications instead of repeating one.
func (in evolveInput) forPass(seed int64, pass, i int) (evolveInput, error) {
	k := 2 * (pass*len(evolveDeck) + i)
	sp, err := spec.Generate(in.net, spec.PaperGenOptions(splitmix(seed, k)))
	if err != nil {
		return in, err
	}
	in.sp = sp
	in.opt.Seed = splitmix(seed, k+1)
	return in, nil
}

// evolveCounts are one synthesis' deterministic work counts.
type evolveCounts struct {
	gens, evals, delta, full int
	hits, misses             int64
	front                    int
	// hardened hashes every front point's damage, cost and hardened set
	// in order.
	hardened string
}

func (c evolveCounts) String() string {
	return fmt.Sprintf("gens=%d evals=%d delta=%d full=%d hits=%d misses=%d front=%d %s",
		c.gens, c.evals, c.delta, c.full, c.hits, c.misses, c.front, c.hardened)
}

func countsOf(s *core.Synthesis) evolveCounts {
	return evolveCounts{s.Generations, s.Evaluations, s.DeltaEvals, s.FullEvals,
		s.CacheHits, s.CacheMisses, len(s.Front), frontDigest(s.Front)}
}

// tracedCounts are the counts of a traced operation, comparable with
// countsOf field by field.
func tracedCounts(ts *tracedSynthesis) evolveCounts {
	r := ts.res
	return evolveCounts{r.Generations, r.Evaluations, r.DeltaEvals, r.FullEvals,
		r.CacheHits, r.CacheMisses, len(ts.front), frontDigest(ts.front)}
}

func frontDigest(front []core.Solution) string {
	h := sha256.New()
	for _, sol := range front {
		fmt.Fprintln(h, sol.Damage, sol.Cost, sol.Hardened)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// setupEvolve generates the networks and the first pass's inputs and
// warms up with one synthesis of the smallest row.
func setupEvolve(seed int64) ([]evolveInput, error) {
	ins, err := evolveNets()
	if err != nil {
		return nil, err
	}
	in, err := ins[0].forPass(seed, 0, 0)
	if err != nil {
		return nil, err
	}
	if _, err := core.Synthesize(in.net, in.sp, in.opt); err != nil {
		return nil, err
	}
	return ins, nil
}

func runEvolve(cfg config) (*report, error) {
	ins, setupS, err := setupMedian(evolveSetupReps, func() ([]evolveInput, error) { return setupEvolve(cfg.seed) }, func([]evolveInput) {})
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.metrics["setup_s"] = setupS
	rep.layers = []string{"rsn", "sptree", "faults", "core", "moea", "trace"}

	minOps := minSamples(evolveTailPct)
	// The counts of the first digestPasses passes, which every run
	// completes, go into the digest that must repeat for the seed.
	digestPasses := (minOps + len(ins) - 1) / len(ins)
	var cpuMS, ratios, passSec []float64
	counts := map[[2]int]evolveCounts{}
	start := time.Now()
	for pass := 0; time.Since(start) < cfg.seconds || len(cpuMS) < minOps; pass++ {
		passSec = append(passSec, 0)
		for i := range ins {
			in, err := ins[i].forPass(cfg.seed, pass, i)
			if err != nil {
				return nil, err
			}
			settle()
			c0 := cpuTime()
			syn, err := core.Synthesize(in.net, in.sp, in.opt)
			d := cpuTime() - c0
			passSec[pass] += d.Seconds()
			cpuMS = append(cpuMS, ms(d))
			rep.attempted++
			if err != nil {
				rep.failed++
				rep.problem("%s pass %d: %v", in.label, pass, err)
				continue
			}
			// Everything below is outside the timed region.
			c := countsOf(syn)
			counts[[2]int{pass, i}] = c
			if pass < digestPasses {
				rep.count("pass %d %s %s", pass, in.label, c)
			}
			ratio, err := synthesisOracle(syn, in)
			if err != nil {
				rep.failed++
				rep.problem("%s pass %d: %v", in.label, pass, err)
				continue
			}
			if in.exact {
				ratios = append(ratios, ratio)
			}
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.metrics["peak_rss_mb"] = rss
	rep.cpuTimes(cpuMS, evolveTailPct)
	rep.metrics["ops_per_cpu_s"] = passRate(len(ins), passSec)
	rep.metrics["hv_ratio"] = mean(ratios)
	if cfg.trace {
		if err := traceEvolve(cfg, ins, counts, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// synthesisOracle checks one synthesis against a fresh, independent
// analysis: every front point's cost and damage recomputed from its
// mask, the front nondominated, and its hypervolume no higher than the
// exact front's. It returns the hypervolume ratio (0 when the row has no
// exact front).
func synthesisOracle(s *core.Synthesis, in evolveInput) (float64, error) {
	tree, err := sptree.Build(in.net)
	if err != nil {
		return 0, err
	}
	a, err := faults.Analyze(in.net, tree, in.sp, in.opt.Analysis)
	if err != nil {
		return 0, err
	}
	if s.MaxCost != a.MaxCost() || s.MaxDamage != a.TotalDamage {
		return 0, fmt.Errorf("max cost/damage %d/%d, analysis says %d/%d", s.MaxCost, s.MaxDamage, a.MaxCost(), a.TotalDamage)
	}
	pts := make([]point, len(s.Front))
	for k, sol := range s.Front {
		c, d := a.HardeningCost(sol.Mask), a.ResidualDamage(sol.Mask)
		if c != sol.Cost || d != sol.Damage {
			return 0, fmt.Errorf("front point %d reports cost/damage %d/%d, its mask gives %d/%d", k, sol.Cost, sol.Damage, c, d)
		}
		if len(sol.Values) != 2 || sol.Values[0] != float64(d) || sol.Values[1] != float64(c) {
			return 0, fmt.Errorf("front point %d values %v, want [%d %d]", k, sol.Values, d, c)
		}
		n := 0
		for _, on := range sol.Mask {
			if on {
				n++
			}
		}
		if n != len(sol.Hardened) {
			return 0, fmt.Errorf("front point %d lists %d hardened primitives, its mask %d", k, len(sol.Hardened), n)
		}
		pts[k] = point{c, d}
	}
	var exact []point
	if in.exact {
		exact = exactFront(a)
	}
	return frontOracle(pts, a, exact)
}

// timedProblem times every objective evaluation of a core.Problem. It
// implements exactly the optional interfaces core.Problem does, so the
// engine takes the same batch and delta paths as in an untraced run.
type timedProblem struct {
	p                       *core.Problem
	evalNS                  atomic.Int64
	deltaTries, deltaDeclin atomic.Int64
}

var (
	_ moea.BatchProblem = (*timedProblem)(nil)
	_ moea.DeltaProblem = (*timedProblem)(nil)
	_ moea.BatchProblem = (*core.Problem)(nil)
	_ moea.DeltaProblem = (*core.Problem)(nil)
)

func (t *timedProblem) NumBits() int       { return t.p.NumBits() }
func (t *timedProblem) NumObjectives() int { return t.p.NumObjectives() }
func (t *timedProblem) CanDelta() bool     { return t.p.CanDelta() }

func (t *timedProblem) Evaluate(g moea.Genome, out []float64) {
	t0 := time.Now()
	t.p.Evaluate(g, out)
	t.evalNS.Add(int64(time.Since(t0)))
}

func (t *timedProblem) EvaluateBatch(gs []moea.Genome, outs [][]float64) {
	t0 := time.Now()
	t.p.EvaluateBatch(gs, outs)
	t.evalNS.Add(int64(time.Since(t0)))
}

func (t *timedProblem) EvaluateDelta(g, base moea.Genome, baseObj, out []float64) bool {
	t0 := time.Now()
	ok := t.p.EvaluateDelta(g, base, baseObj, out)
	t.evalNS.Add(int64(time.Since(t0)))
	t.deltaTries.Add(1)
	if !ok {
		t.deltaDeclin.Add(1)
	}
	return ok
}

// tracedSynthesis is one traced table1-evolve operation: the synthesis
// pipeline called layer by layer (validate, SP-tree, criticality,
// problem tables, SPEA-2 through timedProblem, front extraction) with
// the parameters and seed genomes core.Synthesize uses.
type tracedSynthesis struct {
	res                  *moea.Result
	front                []core.Solution
	evalMS, spea2MS      float64
	deltaTries, declined int64
	prims                int
	genMS                []float64
}

func runTracedSynthesis(tr *tracer, op int64, in evolveInput) (*tracedSynthesis, error) {
	root := tr.begin("op", -1, op)
	defer tr.end(root)
	s := tr.begin("rsn.Validate", root, op)
	err := rsn.Validate(in.net)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("sptree.Build", root, op)
	tree, err := sptree.Build(in.net)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("faults.Analyze", root, op)
	a, err := faults.Analyze(in.net, tree, in.sp, in.opt.Analysis)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("core.NewProblem", root, op)
	p := core.NewProblem(a, in.opt.ForceCritical)
	tr.end(s)

	par := synthesisParams(in, p.NumBits())
	ts := &tracedSynthesis{prims: len(a.Prims)}
	tp := &timedProblem{p: p}
	s = tr.begin("moea.SPEA2", root, op)
	res, err := moea.SPEA2(tp, par)
	d := tr.end(s)
	if err != nil {
		return nil, err
	}
	ts.res = res
	ts.spea2MS = ms(d)
	ts.evalMS = ms(time.Duration(tp.evalNS.Load()))
	ts.deltaTries, ts.declined = tp.deltaTries.Load(), tp.deltaDeclin.Load()
	s = tr.begin("extract", root, op)
	ts.front = extractFront(p, a, res.Front)
	tr.end(s)
	return ts, nil
}

// extractFront materializes the engine's front as core.Synthesize does,
// through public calls: each genome's mask and hardened set, its cost,
// residual damage, objective values and critical coverage. The deck
// runs without ForceCritical, so a genome's bits are its whole
// hardening decision.
func extractFront(p *core.Problem, a *faults.Analysis, front []moea.Individual) []core.Solution {
	prims := p.Primitives()
	sols := make([]core.Solution, len(front))
	for k := range front {
		g := front[k].G
		mask := make([]bool, a.Net.NumNodes())
		var hardened []rsn.NodeID
		for i, id := range prims {
			if g.Get(i) {
				mask[id] = true
				hardened = append(hardened, id)
			}
		}
		covered := true
		for _, id := range a.Prims {
			if a.CritHit[id] && !mask[id] {
				covered = false
				break
			}
		}
		sols[k] = core.Solution{Hardened: hardened, Mask: mask, Cost: a.HardeningCost(mask), Damage: a.ResidualDamage(mask),
			CriticalCovered: covered, Values: p.ObjectiveValues(g)}
	}
	return sols
}

// generationTimes reruns the engine with a generation hook and returns
// the wall time of every generation. The hook makes the engine filter
// its front once per generation, so this run is kept apart from the one
// that splits evaluation from engine time.
func generationTimes(in evolveInput) ([]float64, error) {
	tree, err := sptree.Build(in.net)
	if err != nil {
		return nil, err
	}
	a, err := faults.Analyze(in.net, tree, in.sp, in.opt.Analysis)
	if err != nil {
		return nil, err
	}
	p := core.NewProblem(a, in.opt.ForceCritical)
	par := synthesisParams(in, p.NumBits())
	var genMS []float64
	last := time.Now()
	par.OnGeneration = func(int, []moea.Individual) bool {
		now := time.Now()
		genMS = append(genMS, ms(now.Sub(last)))
		last = now
		return true
	}
	_, err = moea.SPEA2(p, par)
	return genMS, err
}

// synthesisParams are the engine parameters and seed genomes
// core.Synthesize uses for in: the paper defaults for the network, the
// options' budget, seed, memoization and workers, and the all-zero and
// all-one genomes.
func synthesisParams(in evolveInput, bits int) moea.Params {
	par := moea.Defaults(in.net.Stats().Muxes, in.opt.Generations, in.opt.Seed)
	par.Generations = in.opt.Generations
	par.Seed = in.opt.Seed
	par.Memoize = in.opt.Memoize
	par.Workers = in.opt.Workers
	zeros, ones := moea.NewGenome(bits), moea.NewGenome(bits)
	for i := 0; i < bits; i++ {
		ones.Set(i, true)
	}
	par.Seeds = []moea.Genome{zeros, ones}
	return par
}

// traceEvolve is the traced phase over the same inputs, pass by pass.
// Each operation runs the layer-by-layer pipeline; right after it, one
// core.Synthesize of the same input under a single span gives the core
// stage split, the allocation and the untraced time the pipeline is
// compared with, and one hooked engine run the generation times. Pairing
// each traced operation with an untraced one keeps the host's drift out
// of the overhead. The traced fronts and counts must equal the untraced
// ones exactly. The overhead compares the CPU time of the two. The phase
// runs whole passes for about cfg.seconds of wall time.
func traceEvolve(cfg config, nets []evolveInput, untraced map[[2]int]evolveCounts, rep *report) error {
	tr := newTracer()
	var evalMS, engineMS, genMS, evolveMS, extractMS, allocMB, evals, passSec, passSyn []float64
	var deltaEvals, allEvals, hits, lookups, tries, declined, prims float64
	start := time.Now()
	op := int64(0)
	for pass := 0; pass == 0 || time.Since(start) < cfg.seconds; pass++ {
		passSec, passSyn = append(passSec, 0), append(passSyn, 0)
		for i := range nets {
			in, err := nets[i].forPass(cfg.seed, pass, i)
			if err != nil {
				return err
			}
			op++
			settle()
			c0 := cpuTime()
			ts, err := runTracedSynthesis(tr, op, in)
			passSec[pass] += (cpuTime() - c0).Seconds()
			if err != nil {
				return fmt.Errorf("traced %s: %w", in.label, err)
			}
			evalMS = append(evalMS, ts.evalMS)
			engineMS = append(engineMS, ts.spea2MS-ts.evalMS)
			r := ts.res
			evals = append(evals, float64(r.Evaluations))
			deltaEvals += float64(r.DeltaEvals)
			allEvals += float64(r.Evaluations)
			hits += float64(r.CacheHits)
			lookups += float64(r.CacheHits + r.CacheMisses)
			tries += float64(ts.deltaTries)
			declined += float64(ts.declined)
			prims += float64(ts.prims)

			var m0, m1 runtime.MemStats
			settle()
			runtime.ReadMemStats(&m0)
			s := tr.begin("core.Synthesize", -1, op)
			c0 = cpuTime()
			syn, err := core.Synthesize(in.net, in.sp, in.opt)
			passSyn[pass] += (cpuTime() - c0).Seconds()
			tr.end(s)
			runtime.ReadMemStats(&m1)
			if err != nil {
				return fmt.Errorf("%s: %w", in.label, err)
			}
			allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
			evolveMS = append(evolveMS, ms(syn.EvolveTime))
			extractMS = append(extractMS, ms(syn.ExtractTime))
			g, err := generationTimes(in)
			if err != nil {
				return fmt.Errorf("%s: %w", in.label, err)
			}
			genMS = append(genMS, g...)
			want, ok := untraced[[2]int{pass, i}]
			if !ok {
				want = countsOf(syn)
			}
			if got := tracedCounts(ts); got != want {
				rep.problem("%s pass %d: traced path diverges from core.Synthesize: %v vs %v", in.label, pass, got, want)
				rep.failed++
			}
		}
	}
	synMS, _ := tr.meanMS("core.Synthesize")
	rep.metrics["core.synthesize_ms"] = synMS
	rep.metrics["core.evolve_ms"] = mean(evolveMS)
	rep.metrics["core.extract_ms"] = mean(extractMS)
	rep.metrics["core.alloc_mb_per_op"] = mean(allocMB)
	rep.metrics["moea.eval_ms"] = mean(evalMS)
	rep.metrics["moea.engine_ms"] = mean(engineMS)
	rep.metrics["moea.gen_ms_p50"] = median(genMS)
	rep.metrics["moea.evals"] = mean(evals)
	rep.metrics["moea.delta_frac"] = deltaEvals / allEvals
	rep.metrics["moea.delta_declined_frac"] = declined / tries
	rep.metrics["moea.memo_hit_frac"] = hits / lookups
	v, _ := tr.meanMS("rsn.Validate")
	rep.metrics["rsn.validate_ms"] = v
	v, _ = tr.meanMS("sptree.Build")
	rep.metrics["sptree.build_ms"] = v
	v, n := tr.meanMS("faults.Analyze")
	rep.metrics["faults.analyze_ms"] = v
	rep.metrics["faults.prims_per_ms"] = prims / (v * float64(n))
	untracedOps, tracedOps := passRate(len(nets), passSyn), passRate(len(nets), passSec)
	rep.metrics["trace.overhead_pct"] = 100 * (untracedOps - tracedOps) / untracedOps
	return tr.write(filepath.Join(cfg.root, ".bench_build", "traces", fmt.Sprintf("table1-evolve-seed%d.jsonl", cfg.seed)))
}
