package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"rsnrobust/internal/benchnets"
	"rsnrobust/internal/faults"
	"rsnrobust/internal/fleet"
	"rsnrobust/internal/serve"
	"rsnrobust/internal/spec"
	"rsnrobust/internal/sptree"
)

// fleet-mix drives one in-process coordinator in front of two in-process
// workers (one job each, every other setting at its default) with a
// closed-loop mix of unique hardens, hot-set repeats and analyze
// requests, one request at a time, so all the CPU time the process
// spends while a request is out belongs to that request.
const (
	fleetTailPct   = 95
	fleetSetupReps = 3
	fleetGens      = 100
	fleetHot       = 6
	fleetTimeout   = 60 * time.Second
	// fleetCycle is the length of one mix cycle (see fleetSchedule); a
	// run ends on a whole cycle and its throughput is the median
	// cycle's.
	fleetCycle = 20
	// fleetReqsPerSecond sizes the schedule: far more requests than a
	// second of CPU time can serve, so a run never exhausts it.
	fleetReqsPerSecond = 200
)

// fleetNets are Table I networks of 48 to 387 primitives in the service's
// default (every-primitive) universe. Hardens use the first six (up to 183
// primitives); p34392 is analyzed only, because its 300-individual
// hardens stream multi-megabyte checkpoints whose overlap made peak RSS
// differ by a quarter between runs.
var fleetNets = []string{"TreeFlat", "q12710", "TreeUnbalanced", "a586710", "TreeBalanced", "TreeFlat_Ex", "p34392"}

type reqKind int

const (
	kindHarden reqKind = iota // unique harden
	kindRepeat                // repeat of a hot-set harden
	kindAnalyze
)

func (k reqKind) String() string { return [...]string{"harden", "repeat", "analyze"}[k] }

// fleetReq is one scheduled request.
type fleetReq struct {
	id                string
	kind              reqKind
	sse               bool
	network           string
	specSeed, optSeed int64
	scope             string // analyze only
	hot               int    // hot-set index of a repeat
}

func (r *fleetReq) path() string {
	if r.kind == kindAnalyze {
		return "/v1/analyze"
	}
	return "/v1/harden"
}

func (r *fleetReq) body() []byte {
	var v any
	if r.kind == kindAnalyze {
		v = serve.AnalyzeRequest{Network: serve.NetworkRef{Name: r.network}, Spec: serve.SpecRef{Generate: true, Seed: r.specSeed}, Scope: r.scope}
	} else {
		v = serve.HardenRequest{Network: serve.NetworkRef{Name: r.network}, Spec: serve.SpecRef{Generate: true, Seed: r.specSeed},
			Options: serve.HardenOptions{Generations: fleetGens, Seed: r.optSeed}}
	}
	b, _ := json.Marshal(v)
	return b
}

// bag draws items in a seeded random order without replacement and
// refills itself when empty, so every full cycle of draws holds each item
// exactly once and the mix of a run does not depend on the seed.
type bag[T any] struct {
	rng         *rand.Rand
	items, left []T
}

func (b *bag[T]) next() T {
	if len(b.left) == 0 {
		b.left = append(b.left, b.items...)
		b.rng.Shuffle(len(b.left), func(i, j int) { b.left[i], b.left[j] = b.left[j], b.left[i] })
	}
	x := b.left[len(b.left)-1]
	b.left = b.left[:len(b.left)-1]
	return x
}

// fleetSchedule draws the hot set and n requests. Of every fleetCycle
// requests, 3 are analyze requests, 4 repeat a hot-set harden and 13 are
// unique hardens with fresh specification and option seeds; one harden
// in four asks for SSE. Networks cycle through their lists. The seed
// orders the mix and draws the specification and option seeds; the mix
// is fixed.
func fleetSchedule(seed int64, n int) (hot, reqs []fleetReq) {
	rng := rand.New(rand.NewSource(seed))
	kinds := &bag[reqKind]{rng: rng, items: []reqKind{
		kindAnalyze, kindAnalyze, kindAnalyze, kindRepeat, kindRepeat, kindRepeat, kindRepeat,
		kindHarden, kindHarden, kindHarden, kindHarden, kindHarden, kindHarden, kindHarden,
		kindHarden, kindHarden, kindHarden, kindHarden, kindHarden, kindHarden}}
	hardenNets := &bag[string]{rng: rng, items: fleetNets[:6]}
	analyzeNets := &bag[string]{rng: rng, items: fleetNets}
	scopes := &bag[string]{rng: rng, items: []string{"all", "control"}}
	sse := &bag[bool]{rng: rng, items: []bool{true, false, false, false}}
	hotIdx := &bag[int]{rng: rng, items: []int{0, 1, 2, 3, 4, 5}}
	// The hot set is one harden on each of the six smaller networks.
	for i, n := range fleetNets[:fleetHot] {
		hot = append(hot, fleetReq{id: fmt.Sprintf("hot-%d", i), kind: kindHarden, network: n, specSeed: rng.Int63(), optSeed: rng.Int63()})
	}
	for k := 0; k < n; k++ {
		var r fleetReq
		switch kinds.next() {
		case kindAnalyze:
			r = fleetReq{kind: kindAnalyze, network: analyzeNets.next(), specSeed: rng.Int63(), scope: scopes.next()}
		case kindRepeat:
			k := hotIdx.next()
			r = hot[k]
			r.kind, r.hot, r.sse = kindRepeat, k, sse.next()
		default:
			r = fleetReq{kind: kindHarden, network: hardenNets.next(), specSeed: rng.Int63(), optSeed: rng.Int63(), sse: sse.next()}
		}
		r.id = fmt.Sprintf("req-%d", k)
		reqs = append(reqs, r)
	}
	return hot, reqs
}

// fleetResp is what the client saw for one request.
type fleetResp struct {
	data     []byte // the response document (the SSE result event's data)
	sseBytes int64
	cpuMS    float64 // CPU time of the whole process while the request was out
	err      error
}

// fleetEnv is a running coordinator with its workers, all on loopback.
type fleetEnv struct {
	workers   []*serve.Server
	coord     *fleet.Coordinator
	srvs      []*http.Server
	serving   sync.WaitGroup
	base      string
	client    *http.Client
	coordRec  *handlerRecorder
	workerRec *handlerRecorder
	hot       [][]byte // warm-up responses of the hot set
}

// listen serves h on a fresh loopback port and returns its base URL.
func (e *fleetEnv) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	e.srvs = append(e.srvs, srv)
	e.serving.Add(1)
	go func() {
		defer e.serving.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

// startFleet boots two workers and the coordinator, waits until the
// coordinator is ready and warms the hot set into the result caches.
// With traced set, every handler is wrapped in a recorder.
func startFleet(hot []fleetReq, traced bool) (*fleetEnv, error) {
	e := &fleetEnv{client: &http.Client{
		Timeout:   fleetTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: runtime.NumCPU()},
	}}
	if traced {
		e.coordRec, e.workerRec = newHandlerRecorder(), newHandlerRecorder()
	}
	var urls []string
	for i := 0; i < 2; i++ {
		w := serve.New(serve.Config{Workers: 1})
		e.workers = append(e.workers, w)
		u, err := e.listen(e.workerRec.wrap(w.Handler()))
		if err != nil {
			e.close()
			return nil, err
		}
		urls = append(urls, u)
	}
	c, err := fleet.New(fleet.Config{Workers: urls})
	if err != nil {
		e.close()
		return nil, err
	}
	e.coord = c
	c.Start()
	if e.base, err = e.listen(e.coordRec.wrap(c.Handler())); err != nil {
		e.close()
		return nil, err
	}
	if err := e.waitReady(); err != nil {
		e.close()
		return nil, err
	}
	for i := range hot {
		r := e.do(&hot[i])
		if r.err != nil {
			e.close()
			return nil, fmt.Errorf("fleet-mix warm-up %s: %w", hot[i].id, r.err)
		}
		e.hot = append(e.hot, r.data)
	}
	warm := fleetReq{id: "warm-analyze", kind: kindAnalyze, network: fleetNets[0], scope: "all"}
	if r := e.do(&warm); r.err != nil {
		e.close()
		return nil, fmt.Errorf("fleet-mix warm-up analyze: %w", r.err)
	}
	return e, nil
}

func (e *fleetEnv) waitReady() error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		res, err := e.client.Get(e.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, res.Body)
			res.Body.Close()
			if res.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("fleet-mix: coordinator not ready after 10s")
}

// close stops every server and the probe loop and waits for them.
func (e *fleetEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range e.srvs {
		_ = s.Shutdown(ctx) // a timeout leaves nothing we could do
	}
	e.serving.Wait()
	if e.coord != nil {
		e.coord.Close()
	}
	e.client.CloseIdleConnections()
}

// do sends one request and reads the whole response, timing it in CPU
// time.
func (e *fleetEnv) do(r *fleetReq) (out fleetResp) {
	c0 := cpuTime()
	defer func() { out.cpuMS = ms(cpuTime() - c0) }()
	req, err := http.NewRequest(http.MethodPost, e.base+r.path(), bytes.NewReader(r.body()))
	if err != nil {
		return fleetResp{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", r.id)
	if r.sse {
		req.Header.Set("Accept", "text/event-stream")
	}
	res, err := e.client.Do(req)
	if err != nil {
		return fleetResp{err: err}
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(res.Body)
		return fleetResp{err: fmt.Errorf("status %d: %s", res.StatusCode, bytes.TrimSpace(b))}
	}
	if !r.sse {
		b, err := io.ReadAll(res.Body)
		return fleetResp{data: b, err: err}
	}
	return readSSE(res.Body)
}

// readSSE reads an event stream up to its terminal event and returns the
// result event's data.
func readSSE(body io.Reader) fleetResp {
	br := bufio.NewReaderSize(body, 64<<10)
	var out fleetResp
	var event string
	for {
		line, err := br.ReadString('\n')
		out.sseBytes += int64(len(line))
		if err != nil {
			out.err = fmt.Errorf("stream ended before a result event: %w", err)
			return out
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data := line[len("data: "):]
			switch event {
			case "result":
				out.data = []byte(data)
				return out
			case "error":
				out.err = fmt.Errorf("error event: %s", data)
				return out
			}
		}
	}
}

// fleetCounts are the coordinator's and workers' counters that fleet-mix
// reads.
type fleetCounts struct {
	dispatches, retries, l1Hits, l1Misses, affinity int64
	workerHits, workerMisses, rejected              int64
}

func (c fleetCounts) sub(b fleetCounts) fleetCounts {
	return fleetCounts{c.dispatches - b.dispatches, c.retries - b.retries, c.l1Hits - b.l1Hits, c.l1Misses - b.l1Misses,
		c.affinity - b.affinity, c.workerHits - b.workerHits, c.workerMisses - b.workerMisses, c.rejected - b.rejected}
}

func (c fleetCounts) String() string {
	return fmt.Sprintf("dispatches=%d retries=%d l1_hits=%d l1_misses=%d", c.dispatches, c.retries, c.l1Hits, c.l1Misses)
}

func (e *fleetEnv) counters() fleetCounts {
	ct := e.coord.Telemetry()
	c := fleetCounts{
		dispatches: ct.Counter("fleet.dispatches").Value(), retries: ct.Counter("fleet.retries").Value(),
		l1Hits: ct.Counter("fleet.cache.hits").Value(), l1Misses: ct.Counter("fleet.cache.misses").Value(),
		affinity: ct.Counter("fleet.cache.affinity_hits").Value(),
	}
	for _, w := range e.workers {
		wt := w.Telemetry()
		c.workerHits += wt.Counter("serve.cache.hits").Value()
		c.workerMisses += wt.Counter("serve.cache.misses").Value()
		c.rejected += wt.Counter("serve.queue.rejected").Value()
	}
	return c
}

// fleetPhase is one measured run over a prefix of the schedule.
type fleetPhase struct {
	resps []fleetResp // one per request sent, in schedule order
	total fleetCounts // counter deltas over the phase
	// early are the counter deltas over the first digestReqs requests,
	// which every run sends.
	early fleetCounts
}

// digestReqs is how many requests every fleet-mix run sends at least
// (enough for the p95 to have minBeyond samples beyond it); their counts
// go into the digest that must repeat for the seed.
var digestReqs = minSamples(fleetTailPct)

// runPhase sends the schedule's requests one after the other. With n > 0
// it sends exactly the first n; otherwise it sends whole mix cycles for
// seconds and until at least digestReqs requests are done.
func (e *fleetEnv) runPhase(reqs []fleetReq, seconds time.Duration, n int) fleetPhase {
	c0 := e.counters()
	var ph fleetPhase
	start := time.Now()
	for i := range reqs {
		if n > 0 && i == n {
			break
		}
		if n <= 0 && i%fleetCycle == 0 && i >= digestReqs && time.Since(start) >= seconds {
			break
		}
		settle()
		resp := e.do(&reqs[i])
		ph.resps = append(ph.resps, resp)
		if i+1 == digestReqs {
			ph.early = e.counters().sub(c0)
		}
	}
	ph.total = e.counters().sub(c0)
	return ph
}

func runFleetMix(cfg config) (*report, error) {
	n := max(digestReqs, int(fleetReqsPerSecond*cfg.seconds.Seconds()))
	hot, reqs := fleetSchedule(cfg.seed, n)
	env, setupS, err := setupMedian(fleetSetupReps, func() (*fleetEnv, error) { return startFleet(hot, false) }, (*fleetEnv).close)
	if err != nil {
		return nil, err
	}
	ph := env.runPhase(reqs, cfg.seconds, 0)
	env.close()
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.metrics["setup_s"] = setupS
	rep.metrics["peak_rss_mb"] = rss
	rep.layers = []string{"serve", "fleet", "trace"}

	if err := fleetOracle(env.hot, reqs, ph, rep); err != nil {
		return nil, err
	}
	rep.count("%s", ph.early)
	if cfg.trace {
		if err := traceFleet(cfg, hot, reqs[:len(ph.resps)], rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// fleetOracle checks every response outside the timed window and fills
// the end-to-end metrics. Each harden response is checked against a
// local analysis of the same network and specification: its maxima, a
// nondominated front no better than the exact front, and picks meeting
// their 10 % constraints; a repeat must also match the warm-up response
// of its hot-set entry. Each analyze response must match the Table I
// entry and the local analysis.
func fleetOracle(hotData [][]byte, reqs []fleetReq, ph fleetPhase, rep *report) error {
	type key struct {
		net   string
		seed  int64
		scope faults.Scope
	}
	type local struct {
		a     *faults.Analysis
		exact []point
	}
	cache := map[key]*local{}
	analysis := func(name string, seed int64, scope faults.Scope, exact bool) (*local, error) {
		k := key{name, seed, scope}
		l := cache[k]
		if l == nil {
			e, _ := benchnets.Lookup(name)
			net, err := benchnets.GenerateEntry(e)
			if err != nil {
				return nil, err
			}
			sp, err := spec.Generate(net, spec.PaperGenOptions(seed))
			if err != nil {
				return nil, err
			}
			tree, err := sptree.Build(net)
			if err != nil {
				return nil, err
			}
			opts := faults.DefaultOptions()
			opts.Scope = scope
			a, err := faults.Analyze(net, tree, sp, opts)
			if err != nil {
				return nil, err
			}
			l = &local{a: a}
			cache[k] = l
		}
		if exact && l.exact == nil {
			l.exact = exactFront(l.a)
		}
		return l, nil
	}

	var cpuMS, ratios, cycleSec []float64
	for i, resp := range ph.resps {
		r := &reqs[i]
		if i%fleetCycle == 0 {
			cycleSec = append(cycleSec, 0)
		}
		cpuMS = append(cpuMS, resp.cpuMS)
		cycleSec[len(cycleSec)-1] += resp.cpuMS / 1000
		rep.attempted++
		err := resp.err
		var ratio float64
		var counts string
		if err == nil {
			switch r.kind {
			case kindAnalyze:
				scope := faults.ScopeAll
				if r.scope == "control" {
					scope = faults.ScopeControl
				}
				var l *local
				if l, err = analysis(r.network, r.specSeed, scope, false); err != nil {
					return err
				}
				err = checkAnalyze(resp.data, r.network, l.a)
			default:
				var l *local
				if l, err = analysis(r.network, r.specSeed, faults.ScopeAll, true); err != nil {
					return err
				}
				ratio, counts, err = checkHarden(resp.data, l.a, l.exact)
				if err == nil && r.kind == kindRepeat {
					err = checkRepeat(resp.data, hotData[r.hot])
				}
			}
		}
		if i < digestReqs {
			rep.count("%s %s %s", r.id, r.kind, counts)
		}
		if err != nil {
			rep.failed++
			rep.problem("%s (%s %s): %v", r.id, r.kind, r.network, err)
			continue
		}
		if r.kind != kindAnalyze {
			ratios = append(ratios, ratio)
		}
	}
	if len(ph.resps)%fleetCycle != 0 {
		cycleSec = cycleSec[:len(cycleSec)-1] // a partial cycle has another mix
	}
	rep.metrics["ops_per_cpu_s"] = passRate(fleetCycle, cycleSec)
	rep.metrics["hv_ratio"] = mean(ratios)
	rep.cpuTimes(cpuMS, fleetTailPct)
	return nil
}

func checkAnalyze(data []byte, name string, a *faults.Analysis) error {
	var resp serve.AnalyzeResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	e, _ := benchnets.Lookup(name)
	switch {
	case resp.Segments != e.Segments || resp.Muxes != e.Muxes:
		return fmt.Errorf("%d segments / %d muxes, Table I lists %d / %d", resp.Segments, resp.Muxes, e.Segments, e.Muxes)
	case resp.Primitives != len(a.Prims) || resp.MaxCost != a.MaxCost() || resp.TotalDamage != a.TotalDamage || resp.MustHarden != len(a.MustHarden()):
		return fmt.Errorf("primitives/max cost/total damage/must harden %d/%d/%d/%d, local analysis %d/%d/%d/%d",
			resp.Primitives, resp.MaxCost, resp.TotalDamage, resp.MustHarden, len(a.Prims), a.MaxCost(), a.TotalDamage, len(a.MustHarden()))
	}
	return nil
}

// checkHarden checks one harden response and returns its hypervolume
// ratio and its deterministic counts.
func checkHarden(data []byte, a *faults.Analysis, exact []point) (float64, string, error) {
	var resp serve.HardenResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return 0, "", fmt.Errorf("decode: %w", err)
	}
	counts := fmt.Sprintf("gens=%d evals=%d memo_hits=%d front=%d", resp.Generations, resp.Evaluations, resp.MemoHits, len(resp.Front))
	switch {
	case resp.Interrupted:
		return 0, counts, errors.New("interrupted")
	case resp.Generations != fleetGens:
		return 0, counts, fmt.Errorf("%d generations, asked for %d", resp.Generations, fleetGens)
	case resp.MaxCost != a.MaxCost() || resp.MaxDamage != a.TotalDamage:
		return 0, counts, fmt.Errorf("max cost/damage %d/%d, local analysis %d/%d", resp.MaxCost, resp.MaxDamage, a.MaxCost(), a.TotalDamage)
	}
	pts := make([]point, len(resp.Front))
	onFront := map[point]bool{}
	for k, fp := range resp.Front {
		pts[k] = point{fp.Cost, fp.Damage}
		onFront[pts[k]] = true
	}
	ratio, err := frontOracle(pts, a, exact)
	if err != nil {
		return 0, counts, err
	}
	dmgLimit := int64(math.Floor(0.10 * float64(a.TotalDamage)))
	costLimit := int64(math.Floor(0.10 * float64(a.MaxCost())))
	switch d, c := resp.Picks.Damage10, resp.Picks.Cost10; {
	case d == nil || c == nil:
		return 0, counts, errors.New("a 10 % pick is missing")
	case d.Damage > dmgLimit:
		return 0, counts, fmt.Errorf("damage10 pick has damage %d > %d", d.Damage, dmgLimit)
	case c.Cost > costLimit:
		return 0, counts, fmt.Errorf("cost10 pick has cost %d > %d", c.Cost, costLimit)
	case !onFront[point{d.Cost, d.Damage}] || !onFront[point{c.Cost, c.Damage}]:
		return 0, counts, errors.New("a pick is not on the front")
	}
	return ratio, counts, nil
}

// checkRepeat requires a repeat to be the cached form of the warm-up
// response of its hot-set entry.
func checkRepeat(data, original []byte) error {
	var a, b serve.HardenResponse
	if err := json.Unmarshal(data, &a); err != nil {
		return err
	}
	if err := json.Unmarshal(original, &b); err != nil {
		return err
	}
	if !a.Cached {
		return errors.New("repeat was not served from a cache")
	}
	a.Cached, a.ElapsedMS, b.Cached, b.ElapsedMS = false, 0, false, 0
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		return errors.New("repeat differs from the original response")
	}
	return nil
}

// handlerRecord is one request as a wrapped handler saw it.
type handlerRecord struct {
	id, path   string
	start, end time.Time
	bytes      int64
}

func (h handlerRecord) dur() time.Duration { return h.end.Sub(h.start) }

// handlerRecorder wraps a service handler and records every /v1/ request
// it serves. A nil recorder wraps nothing.
type handlerRecorder struct {
	mu   sync.Mutex
	recs []handlerRecord
}

func newHandlerRecorder() *handlerRecorder { return &handlerRecorder{} }

func (h *handlerRecorder) wrap(next http.Handler) http.Handler {
	if h == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			next.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		t0 := time.Now()
		next.ServeHTTP(cw, r)
		rec := handlerRecord{id: r.Header.Get("X-Request-Id"), path: r.URL.Path, start: t0, end: time.Now(), bytes: cw.n}
		h.mu.Lock()
		h.recs = append(h.recs, rec)
		h.mu.Unlock()
	})
}

func (h *handlerRecorder) reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.recs = nil
}

func (h *handlerRecorder) records() []handlerRecord {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]handlerRecord(nil), h.recs...)
}

// countingWriter counts the body bytes a handler writes and keeps the
// flushing the SSE paths rely on.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (c *countingWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }

// hopTimes joins coordinator and worker handler records on X-Request-Id.
// For every request the coordinator dispatched at least once, the hop is
// the coordinator's handler time minus the sum of the worker handler
// times of all its dispatches (retries included). Requests the
// coordinator answered itself have no worker record and no hop.
func hopTimes(coord, workers []handlerRecord) map[string]time.Duration {
	worker := map[string]time.Duration{}
	for _, w := range workers {
		worker[w.id] += w.dur()
	}
	hops := map[string]time.Duration{}
	for _, c := range coord {
		if wd, ok := worker[c.id]; ok {
			hops[c.id] = c.dur() - wd
		}
	}
	return hops
}

// traceFleet is the traced phase: a fresh fleet with every handler
// wrapped sends the same requests as the untraced phase; the per-layer
// metrics come from the handler records and the service counters.
func traceFleet(cfg config, hot, reqs []fleetReq, rep *report) error {
	env, err := startFleet(hot, true)
	if err != nil {
		return err
	}
	// Only the measured phase counts: drop the warm-up records.
	env.coordRec.reset()
	env.workerRec.reset()
	ph := env.runPhase(reqs, cfg.seconds, len(reqs))
	env.close()
	tr := newReport()
	if err := fleetOracle(env.hot, reqs, ph, tr); err != nil {
		return err
	}
	rep.failed += tr.failed
	rep.problems = append(rep.problems, tr.problems...)
	coord, workers := env.coordRec.records(), env.workerRec.records()

	var hardenMS, analyzeMS, sseBytes []float64
	for _, w := range workers {
		switch w.path {
		case "/v1/harden":
			hardenMS = append(hardenMS, ms(w.dur()))
			sseBytes = append(sseBytes, float64(w.bytes))
		case "/v1/analyze":
			analyzeMS = append(analyzeMS, ms(w.dur()))
		}
	}
	workerHarden := map[string]time.Duration{}
	for _, w := range workers {
		if w.path == "/v1/harden" {
			workerHarden[w.id] += w.dur()
		}
	}
	var overhead []float64
	for i := range reqs {
		if reqs[i].kind != kindHarden || ph.resps[i].err != nil {
			continue
		}
		var resp serve.HardenResponse
		if json.Unmarshal(ph.resps[i].data, &resp) == nil && !resp.Cached {
			if wd, ok := workerHarden[reqs[i].id]; ok {
				overhead = append(overhead, ms(wd)-resp.ElapsedMS)
			}
		}
	}
	var hops []float64
	for _, h := range hopTimes(coord, workers) {
		hops = append(hops, ms(h))
	}
	n := float64(len(reqs))
	rep.metrics["serve.harden_ms"] = mean(hardenMS)
	rep.metrics["serve.analyze_ms"] = mean(analyzeMS)
	rep.metrics["serve.overhead_ms"] = mean(overhead)
	rep.metrics["serve.sse_bytes_per_req"] = mean(sseBytes)
	c := ph.total
	rep.metrics["serve.cache_hit_frac"] = frac(c.workerHits, c.workerHits+c.workerMisses)
	rep.metrics["serve.rejected"] = float64(c.rejected)
	rep.metrics["fleet.hop_ms"] = mean(hops)
	rep.metrics["fleet.l1_hit_frac"] = frac(c.l1Hits, c.l1Hits+c.l1Misses)
	rep.metrics["fleet.dispatches_per_req"] = float64(c.dispatches) / n
	rep.metrics["fleet.retries"] = float64(c.retries)
	rep.metrics["fleet.affinity_frac"] = frac(c.affinity, c.dispatches)
	untraced, traced := rep.metrics["ops_per_cpu_s"], tr.metrics["ops_per_cpu_s"]
	rep.metrics["trace.overhead_pct"] = 100 * (untraced - traced) / untraced

	return writeHandlerSpans(filepath.Join(cfg.root, ".bench_build", "traces", fmt.Sprintf("fleet-mix-seed%d.jsonl", cfg.seed)), reqs, coord, workers)
}

// writeHandlerSpans stores the handler records as spans: each worker
// span's parent is the coordinator span of the same request, and the
// operation id is the request's schedule index.
func writeHandlerSpans(path string, reqs []fleetReq, coord, workers []handlerRecord) error {
	op := map[string]int64{}
	for i := range reqs {
		op[reqs[i].id] = int64(i)
	}
	tr := newTracer()
	for _, c := range coord {
		if c.start.Before(tr.origin) {
			tr.origin = c.start
		}
	}
	parent := map[string]int{}
	for _, c := range coord {
		parent[c.id] = len(tr.spans)
		tr.spans = append(tr.spans, span{Name: "fleet " + c.path, Start: c.start.Sub(tr.origin), End: c.end.Sub(tr.origin), Parent: -1, Op: op[c.id]})
	}
	for _, w := range workers {
		p, ok := parent[w.id]
		if !ok {
			p = -1
		}
		tr.spans = append(tr.spans, span{Name: "serve " + w.path, Start: w.start.Sub(tr.origin), End: w.end.Sub(tr.origin), Parent: p, Op: op[w.id]})
	}
	return tr.write(path)
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
