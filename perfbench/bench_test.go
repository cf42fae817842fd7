package main

import (
	"slices"
	"testing"
	"time"

	"rsnrobust/internal/benchnets"
	"rsnrobust/internal/core"
	"rsnrobust/internal/faults"
	"rsnrobust/internal/spec"
	"rsnrobust/internal/sptree"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n, want int
		ok      bool
	}{
		{50, 0, false}, {99, 0, false}, {100, 90, true}, {199, 90, true},
		{200, 95, true}, {999, 95, true}, {1000, 99, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%d has %d beyond", c.n, p, beyond(c.n, p))
		}
	}
	for p, want := range map[int]int{90: 100, 95: 200, 99: 1000} {
		if got := minSamples(p); got != want {
			t.Errorf("minSamples(%d) = %d, want %d", p, got, want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
}

func TestPassRateIsTheMedianPass(t *testing.T) {
	// One slow pass does not move the rate.
	if got := passRate(7, []float64{1, 1.1, 10}); got != 7/1.1 {
		t.Errorf("passRate = %v, want %v", got, 7/1.1)
	}
}

func TestHypervolumeStaircase(t *testing.T) {
	for _, c := range []struct {
		name string
		pts  []point
		want int64
	}{
		{"single", []point{{2, 5}}, 8 * 5},
		// [2,10]×[5,10] ∪ [5,10]×[2,10] = 40 + 40 - 25.
		{"two", []point{{5, 2}, {2, 5}}, 55},
		{"dominated", []point{{2, 5}, {5, 2}, {6, 6}, {3, 5}}, 55},
		{"duplicates", []point{{2, 5}, {2, 5}, {5, 2}, {5, 2}}, 55},
		{"outside box", []point{{10, 0}, {0, 10}, {11, 1}}, 0},
		{"origin", []point{{0, 0}, {3, 3}}, 100},
		{"empty", nil, 0},
	} {
		got, err := hypervolume(c.pts, 10, 10)
		if err != nil || got != c.want {
			t.Errorf("%s: hypervolume = %d, %v; want %d", c.name, got, err, c.want)
		}
	}
	if _, err := hypervolume([]point{{1, 1}}, 1<<40, 1<<40); err == nil {
		t.Error("overflowing reference box accepted")
	}
}

func TestNondominated(t *testing.T) {
	if _, _, ok := nondominated([]point{{1, 5}, {2, 3}, {2, 3}, {4, 1}}); !ok {
		t.Error("a front with a duplicate point reported dominated")
	}
	if i, j, ok := nondominated([]point{{1, 5}, {2, 3}, {2, 4}}); ok || i != 1 || j != 2 {
		t.Errorf("nondominated = %d, %d, %v; want 1, 2, false", i, j, ok)
	}
}

// TestCPUTimeCountsWorkNotWaiting: the clock operations are timed with
// advances while the process computes and stands still while it sleeps.
func TestCPUTimeCountsWorkNotWaiting(t *testing.T) {
	c0 := cpuTime()
	time.Sleep(200 * time.Millisecond)
	if slept := cpuTime() - c0; slept > 50*time.Millisecond {
		t.Errorf("a 200 ms sleep used %v of CPU time", slept)
	}
	c0 = cpuTime()
	x := uint64(1)
	for cpuTime()-c0 < 50*time.Millisecond {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	if x == 0 {
		t.Log(x) // keeps the loop
	}
}

const msec = time.Millisecond

func TestHopTimesJoinOnRequestID(t *testing.T) {
	t0 := time.Unix(0, 0)
	rec := func(id string, from, to time.Duration) handlerRecord {
		return handlerRecord{id: id, path: "/v1/harden", start: t0.Add(from), end: t0.Add(to)}
	}
	coord := []handlerRecord{
		rec("a", 0, 100*msec),
		rec("b", 0, 5*msec), // answered from the coordinator's cache
		rec("c", 0, 300*msec),
	}
	workers := []handlerRecord{
		rec("a", 10*msec, 90*msec),
		rec("c", 10*msec, 110*msec),  // first dispatch
		rec("c", 150*msec, 290*msec), // retry on the other worker
		rec("x", 0, 50*msec),         // no coordinator record
	}
	got := hopTimes(coord, workers)
	want := map[string]time.Duration{"a": 20 * msec, "c": 60 * msec}
	if len(got) != len(want) {
		t.Fatalf("hops = %v, want %v", got, want)
	}
	for id, d := range want {
		if got[id] != d {
			t.Errorf("hop %s = %v, want %v", id, got[id], d)
		}
	}
}

func TestFrontOracle(t *testing.T) {
	net, err := benchnets.Generate("TreeFlat")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := spec.Generate(net, spec.PaperGenOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := sptree.Build(net)
	if err != nil {
		t.Fatal(err)
	}
	a, err := faults.Analyze(net, tree, sp, faults.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	exact := exactFront(a)
	if r, err := frontOracle(exact, a, exact); err != nil || r != 1 {
		t.Errorf("exact front against itself: ratio %v, %v", r, err)
	}
	if _, err := frontOracle([]point{{0, 0}}, a, exact); err == nil {
		t.Error("a point better than the exact front passed")
	}
	if _, err := frontOracle([]point{{0, a.TotalDamage}, {1, a.TotalDamage}}, a, exact); err == nil {
		t.Error("a dominated point passed")
	}
	if r, err := frontOracle([]point{{0, a.TotalDamage}, {a.MaxCost(), 0}}, a, exact); err != nil || r <= 0 || r >= 1 {
		t.Errorf("extreme points only: ratio %v, %v", r, err)
	}
}

// TestTracedEnginePathMatchesSynthesize checks that the layer-by-layer
// traced path reproduces core.Synthesize's front and counts exactly.
func TestTracedEnginePathMatchesSynthesize(t *testing.T) {
	nets, err := evolveNets()
	if err != nil {
		t.Fatal(err)
	}
	for i := range nets[:2] {
		in, err := nets[i].forPass(5, 1, i)
		if err != nil {
			t.Fatal(err)
		}
		syn, err := core.Synthesize(in.net, in.sp, in.opt)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := runTracedSynthesis(newTracer(), 1, in)
		if err != nil {
			t.Fatal(err)
		}
		if want, got := countsOf(syn), tracedCounts(ts); got != want {
			t.Errorf("%s: traced %v, synthesized %v", in.label, got, want)
		}
		if ts.deltaTries == 0 || ts.evalMS <= 0 {
			t.Errorf("%s: wrapper saw %d delta tries, %v ms", in.label, ts.deltaTries, ts.evalMS)
		}
	}
}

// TestCountsRepeatForTheSameSeed runs short fleet-mix phases twice with
// one seed: every response's counts and the coordinator's dispatch count
// must repeat exactly.
func TestCountsRepeatForTheSameSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("starts two fleets")
	}
	counts := func() []string {
		hot, reqs := fleetSchedule(9, 2*fleetCycle)
		env, err := startFleet(hot, false)
		if err != nil {
			t.Fatal(err)
		}
		ph := env.runPhase(reqs, 0, len(reqs))
		env.close()
		rep := newReport()
		if err := fleetOracle(env.hot, reqs, ph, rep); err != nil {
			t.Fatal(err)
		}
		if rep.failed != 0 {
			t.Fatalf("%d failed: %v", rep.failed, rep.problems)
		}
		if len(rep.counts) != len(reqs) {
			t.Fatalf("%d counts for %d requests", len(rep.counts), len(reqs))
		}
		return append(rep.counts, ph.total.String())
	}
	a, b := counts(), counts()
	if !slices.Equal(a, b) {
		t.Errorf("counts differ between runs with one seed:\n%v\n%v", a, b)
	}
}

func TestScheduleMix(t *testing.T) {
	hot, reqs := fleetSchedule(4, 10*fleetCycle)
	if len(hot) != fleetHot || len(reqs) != 200 {
		t.Fatalf("%d hot, %d requests", len(hot), len(reqs))
	}
	n := map[reqKind]int{}
	sse := 0
	for _, r := range reqs {
		n[r.kind]++
		if r.sse {
			sse++
		}
	}
	if n[kindAnalyze] != 30 || n[kindRepeat] != 40 || n[kindHarden] != 130 || sse < 170/4 || sse > 170/4+1 {
		t.Errorf("mix %v, %d SSE", n, sse)
	}
	_, again := fleetSchedule(4, 10*fleetCycle)
	if !slices.EqualFunc(reqs, again, func(a, b fleetReq) bool { return a == b }) {
		t.Error("the same seed gave another schedule")
	}
}
