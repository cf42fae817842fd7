package moea

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// knapsackProblem is a tiny separable bi-objective problem mirroring the
// selective-hardening structure: minimizing residual value vs. cost.
type knapsackProblem struct {
	value []int64
	cost  []int64
	total int64
}

func newKnapsack(seed int64, n int) *knapsackProblem {
	rng := rand.New(rand.NewSource(seed))
	p := &knapsackProblem{value: make([]int64, n), cost: make([]int64, n)}
	for i := 0; i < n; i++ {
		p.value[i] = 1 + rng.Int63n(100)
		p.cost[i] = 1 + rng.Int63n(20)
		p.total += p.value[i]
	}
	return p
}

func (p *knapsackProblem) NumBits() int       { return len(p.value) }
func (p *knapsackProblem) NumObjectives() int { return 2 }
func (p *knapsackProblem) Evaluate(g Genome, out []float64) {
	var v, c int64
	for i := 0; i < len(p.value); i++ {
		if g.Get(i) {
			v += p.value[i]
			c += p.cost[i]
		}
	}
	out[0] = float64(p.total - v)
	out[1] = float64(c)
}

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{1, 1}, []float64{2, 2}, true},
		{[]float64{1, 2}, []float64{2, 1}, false},
		{[]float64{1, 1}, []float64{1, 1}, false},
		{[]float64{1, 2}, []float64{1, 3}, true},
		{[]float64{2, 2}, []float64{1, 1}, false},
	}
	for _, c := range cases {
		if got := Dominates(c.a, c.b); got != c.want {
			t.Errorf("Dominates(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestParetoFilter(t *testing.T) {
	pop := []Individual{
		{Obj: []float64{1, 5}},
		{Obj: []float64{2, 2}},
		{Obj: []float64{5, 1}},
		{Obj: []float64{3, 3}}, // dominated by (2,2)
		{Obj: []float64{2, 2}}, // duplicate
	}
	front := ParetoFilter(pop)
	if len(front) != 3 {
		t.Fatalf("front size = %d, want 3", len(front))
	}
	for i := 1; i < len(front); i++ {
		if front[i].Obj[0] < front[i-1].Obj[0] {
			t.Error("front not sorted by first objective")
		}
	}
}

func TestHypervolume(t *testing.T) {
	front := []Individual{
		{Obj: []float64{1, 3}},
		{Obj: []float64{2, 2}},
		{Obj: []float64{3, 1}},
	}
	// ref (4,4): boxes: (4-1)*(4-3)=3, (4-2)*(3-2)=2, (4-3)*(2-1)=1.
	if got := Hypervolume(front, []float64{4, 4}); got != 6 {
		t.Errorf("Hypervolume = %v, want 6", got)
	}
	if got := Hypervolume(nil, []float64{4, 4}); got != 0 {
		t.Errorf("empty Hypervolume = %v, want 0", got)
	}
	// Points outside the reference box are ignored.
	if got := Hypervolume([]Individual{{Obj: []float64{5, 5}}}, []float64{4, 4}); got != 0 {
		t.Errorf("out-of-box Hypervolume = %v, want 0", got)
	}
}

func TestKSelect(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	for k := 1; k <= 5; k++ {
		sel := newKSelect(k)
		for _, x := range v {
			sel.offer(x, 1)
		}
		if got := sel.kth(); got != float64(k) {
			t.Errorf("kSelect(k=%d).kth() = %v, want %v", k, got, float64(k))
		}
	}
	// Fewer than k copies: the largest seen, matching the clamped
	// quickselect it replaced. Empty: 0.
	sel := newKSelect(10)
	sel.offer(2, 1)
	sel.offer(7, 1)
	if got := sel.kth(); got != 7 {
		t.Errorf("underfull kth() = %v, want 7", got)
	}
	sel.reset()
	if got := sel.kth(); got != 0 {
		t.Errorf("empty kth() = %v, want 0", got)
	}
	// Randomized cross-check against a full sort, with multiplicities:
	// offering (d, c) must select exactly like c copies of d.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(60)
		var vals []float64
		type wv struct {
			d float64
			c int
		}
		offers := make([]wv, n)
		for i := range offers {
			d := rng.Float64()
			if trial%3 == 0 {
				d = float64(rng.Intn(5)) // force ties across offers
			}
			c := 1
			if trial%2 == 1 {
				c = 1 + rng.Intn(4)
			}
			offers[i] = wv{d, c}
			for j := 0; j < c; j++ {
				vals = append(vals, d)
			}
		}
		k := 1 + rng.Intn(len(vals))
		sel := newKSelect(k)
		for _, o := range offers {
			sel.offer(o.d, o.c)
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		if got := sel.kth(); got != sorted[k-1] {
			t.Fatalf("trial %d: kth(k=%d,copies=%d) = %v, want %v", trial, k, len(vals), got, sorted[k-1])
		}
	}
}

// frontQuality measures how close a front comes to the exact Pareto
// front of the separable problem (computed greedily on the convex hull).
func exactExtremes(p *knapsackProblem) (allValue, zero float64) {
	return float64(p.total), 0
}

func runBoth(t *testing.T, p Problem, par Params) (s, n *Result) {
	t.Helper()
	s, err := SPEA2(p, par)
	if err != nil {
		t.Fatalf("SPEA2: %v", err)
	}
	n, err = NSGA2(p, par)
	if err != nil {
		t.Fatalf("NSGA2: %v", err)
	}
	return s, n
}

func TestOptimizersFindExtremes(t *testing.T) {
	p := newKnapsack(11, 40)
	par := Params{Population: 60, Generations: 120, PCrossover: 0.95, PMutateBit: 0.02, Seed: 1}
	for name, run := range map[string]func() (*Result, error){
		"spea2": func() (*Result, error) { return SPEA2(p, par) },
		"nsga2": func() (*Result, error) { return NSGA2(p, par) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Front) == 0 {
			t.Fatalf("%s: empty front", name)
		}
		// The all-zero solution (cost 0, full residual) is trivially
		// Pareto-optimal and easy to find; the front must include a
		// zero-cost point and a near-zero-damage point.
		minCost, minDamage := math.Inf(1), math.Inf(1)
		for _, in := range res.Front {
			minDamage = math.Min(minDamage, in.Obj[0])
			minCost = math.Min(minCost, in.Obj[1])
		}
		if minCost != 0 {
			t.Errorf("%s: no zero-cost solution on front (min cost %v)", name, minCost)
		}
		total, _ := exactExtremes(p)
		if minDamage > 0.05*total {
			t.Errorf("%s: best residual %v exceeds 5%% of total %v", name, minDamage, total)
		}
	}
}

func TestFrontIsMutuallyNondominated(t *testing.T) {
	p := newKnapsack(13, 30)
	par := Params{Population: 40, Generations: 40, PCrossover: 0.95, PMutateBit: 0.01, Seed: 2}
	s, n := runBoth(t, p, par)
	for name, res := range map[string]*Result{"spea2": s, "nsga2": n} {
		for i := range res.Front {
			for j := range res.Front {
				if i != j && Dominates(res.Front[i].Obj, res.Front[j].Obj) {
					t.Errorf("%s: front member %d dominates member %d", name, i, j)
				}
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	p := newKnapsack(17, 25)
	par := Params{Population: 30, Generations: 25, PCrossover: 0.95, PMutateBit: 0.01, Seed: 5}
	a1, _ := SPEA2(p, par)
	a2, _ := SPEA2(p, par)
	if len(a1.Front) != len(a2.Front) {
		t.Fatalf("front sizes differ: %d vs %d", len(a1.Front), len(a2.Front))
	}
	for i := range a1.Front {
		if !equalObjectives(a1.Front[i].Obj, a2.Front[i].Obj) {
			t.Fatalf("front member %d differs between identical runs", i)
		}
	}
}

func TestEarlyStop(t *testing.T) {
	p := newKnapsack(19, 20)
	calls := 0
	par := Params{
		Population: 20, Generations: 100, PCrossover: 0.95, PMutateBit: 0.01, Seed: 7,
		OnGeneration: func(gen int, front []Individual) bool {
			calls++
			return gen < 4
		},
	}
	res, err := SPEA2(p, par)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations != 5 {
		t.Errorf("stopped after %d generations, want 5 (gen index 4 returns false)", res.Generations)
	}
	if calls != 5 {
		t.Errorf("OnGeneration called %d times, want 5", calls)
	}
}

func TestSeedsEnterInitialPopulation(t *testing.T) {
	p := newKnapsack(23, 30)
	seed := NewGenome(30)
	for i := 0; i < 30; i++ {
		seed.Set(i, true) // all hardened: zero residual, known cost
	}
	par := Params{Population: 20, Generations: 2, PCrossover: 0.95, PMutateBit: 0.0, Seed: 9, Seeds: []Genome{seed}}
	res, err := SPEA2(p, par)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, in := range res.Front {
		if in.Obj[0] == 0 {
			found = true
		}
	}
	if !found {
		t.Error("all-ones seed (zero residual) did not survive to the front")
	}
}

func TestTruncateKeepsCapacityAndExtremes(t *testing.T) {
	// keepsExtremes reports whether out holds a minimum of every
	// objective of set.
	keepsExtremes := func(set, out []Individual) bool {
		for k := 0; k < 2; k++ {
			lo, kept := math.Inf(1), math.Inf(1)
			for i := range set {
				lo = min(lo, set[i].Obj[k])
			}
			for i := range out {
				kept = min(kept, out[i].Obj[k])
			}
			if kept != lo {
				return false
			}
		}
		return true
	}
	// Pairwise truncation of arbitrary sets.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(60)
		set := make([]Individual, n)
		for i := range set {
			set[i] = Individual{Obj: []float64{rng.Float64(), rng.Float64()}}
		}
		capacity := 5 + rng.Intn(10)
		out := truncate(append([]Individual(nil), set...), capacity, 2, new(selScratch))
		return len(out) == capacity && keepsExtremes(set, out)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
	// The chain walk against the pairwise truncation on nondominated
	// chains with exact duplicates: same survivors in the same order.
	var ss selScratch
	chainCheck := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		set := randomChain(rng, 2+rng.Intn(600))
		q := len(set)
		capacity := 1 + rng.Intn(q)
		want := truncate(append([]Individual(nil), set...), capacity, 2, new(selScratch))
		obj0, obj1 := make([]float64, q), make([]float64, q)
		ids, chain := make([]int32, q), make([]int32, q)
		for i := range set {
			obj0[i], obj1[i] = set[i].Obj[0], set[i].Obj[1]
			ids[i], chain[i] = int32(i), int32(i)
		}
		slices.SortFunc(chain, func(a, b int32) int {
			if c := cmp.Compare(obj0[a], obj0[b]); c != 0 {
				return c
			}
			return cmp.Compare(obj1[a], obj1[b])
		})
		got := truncate2(obj0, obj1, ids, chain, capacity, &ss)
		if len(got) != len(want) || len(got) != capacity {
			t.Logf("seed %d: n %d capacity %d: chain keeps %d, pairwise %d", seed, q, capacity, len(got), len(want))
			return false
		}
		for i := range got {
			if set[got[i]].G[0] != want[i].G[0] {
				t.Logf("seed %d: n %d capacity %d: survivor %d differs", seed, q, capacity, i)
				return false
			}
		}
		return capacity < 2 || keepsExtremes(set, want)
	}
	if err := quick.Check(chainCheck, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// randomChain returns a shuffled two-objective nondominated set of n
// points over a random number of distinct ones — continuous or on an
// integer grid — each individual tagged by its index in G[0].
func randomChain(rng *rand.Rand, n int) []Individual {
	distinct := 1 + rng.Intn(n)
	xs, ys := make([]float64, distinct), make([]float64, distinct)
	grid := rng.Intn(2) == 0
	for i := range xs {
		if grid {
			xs[i], ys[i] = float64(rng.Intn(4*distinct)), float64(rng.Intn(4*distinct))
		} else {
			xs[i], ys[i] = rng.Float64(), rng.Float64()*1e3
		}
	}
	slices.Sort(xs)
	slices.Sort(ys)
	xs, ys = slices.Compact(xs), slices.Compact(ys)
	distinct = min(len(xs), len(ys))
	set := make([]Individual, n)
	for i := range set {
		p := i
		if i >= distinct {
			p = rng.Intn(distinct)
		}
		set[i] = Individual{Obj: []float64{xs[p], ys[len(ys)-1-p]}}
	}
	rng.Shuffle(n, func(i, j int) { set[i], set[j] = set[j], set[i] })
	for i := range set {
		set[i].G = Genome{uint64(i)}
	}
	return set
}

func TestEnvironmentalSelectionFillsUnderfullArchive(t *testing.T) {
	// One nondominated point plus dominated ones: archive of 3 must be
	// filled with the best dominated individuals.
	union := []Individual{
		{Obj: []float64{0, 0}},
		{Obj: []float64{1, 1}},
		{Obj: []float64{2, 2}},
		{Obj: []float64{3, 3}},
	}
	assignFitness(union, 2, 1, nil)
	arch := environmentalSelection(union, 3, 2, nil)
	if len(arch) != 3 {
		t.Fatalf("archive size = %d, want 3", len(arch))
	}
	if !equalObjectives(arch[0].Obj, []float64{0, 0}) {
		t.Error("nondominated point missing from archive")
	}
}

func TestParamsValidation(t *testing.T) {
	p := newKnapsack(29, 10)
	if _, err := SPEA2(p, Params{Population: 1, Generations: 5}); err == nil {
		t.Error("accepted population 1")
	}
	if _, err := NSGA2(p, Params{Population: 10, Generations: 0}); err == nil {
		t.Error("accepted zero generations")
	}
}

func TestDefaults(t *testing.T) {
	small := Defaults(50, 300, 1)
	if small.Population != 100 {
		t.Errorf("population for 50 muxes = %d, want 100", small.Population)
	}
	big := Defaults(150, 300, 1)
	if big.Population != 300 {
		t.Errorf("population for 150 muxes = %d, want 300", big.Population)
	}
	if big.PCrossover != 0.95 || big.PMutateBit != 0.01 {
		t.Errorf("operator probabilities = (%v,%v), want (0.95,0.01)", big.PCrossover, big.PMutateBit)
	}
}
