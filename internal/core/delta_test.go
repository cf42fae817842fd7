package core

import (
	"math/rand"
	"testing"

	"rsnrobust/internal/benchnets"
	"rsnrobust/internal/fixture"
	"rsnrobust/internal/moea"
	"rsnrobust/internal/rsn"
)

// randomGenome fills a genome with n random bits.
func randomGenome(rng *rand.Rand, n int) moea.Genome {
	g := moea.NewGenome(n)
	for i := 0; i < n; i++ {
		g.Set(i, rng.Intn(2) == 0)
	}
	return g
}

// spliceChild mimics one-point crossover: a's prefix up to x, b's
// suffix from x.
func spliceChild(a, b moea.Genome, x, n int) moea.Genome {
	c := moea.NewGenome(n)
	c.CopyFrom(a)
	for i := x; i < n; i++ {
		c.Set(i, b.Get(i))
	}
	return c
}

// TestDeltaOracleProviders is the exactness gate of the core-layer
// incremental evaluation across every shipped provider: for random
// (base, child) pairs — single-bit mutations, multi-bit mutations and
// crossover splices, the shapes the engine actually produces —
// EvaluateDelta must reproduce a full evaluation bit for bit, on the
// default 2-objective fast path and on every K-objective combination,
// with and without the forced-critical mask.
func TestDeltaOracleProviders(t *testing.T) {
	sets := [][]string{
		nil, // default (damage, cost) fast path
		{"damage", "cost", "test_time", "yield_loss"},
		{"test_time", "yield_loss"},
		{"damage", "test_time"},
	}
	nets := map[string]*rsn.Network{
		"paper":  fixture.PaperExample(),
		"nested": fixture.NestedSIBs(),
		"random": benchnets.Random(benchnets.RandomOptions{Seed: 99, TargetPrims: 80}),
	}
	for netName, net := range nets {
		a := analyzeNet(t, net)
		for _, force := range []bool{false, true} {
			for _, objs := range sets {
				p, err := NewProblemWithObjectives(a, force, objs)
				if err != nil {
					t.Fatal(err)
				}
				if !p.CanDelta() {
					t.Fatalf("%s force=%v objs=%v: CanDelta() = false for all-linear set", netName, force, objs)
				}
				n := p.NumBits()
				m := p.NumObjectives()
				rng := rand.New(rand.NewSource(int64(17 + n)))
				check := func(kind string, base, child moea.Genome) {
					t.Helper()
					baseObj := make([]float64, m)
					want := make([]float64, m)
					got := make([]float64, m)
					p.Evaluate(base, baseObj)
					p.Evaluate(child, want)
					if !p.EvaluateDelta(child, base, baseObj, got) {
						t.Fatalf("%s force=%v objs=%v %s: EvaluateDelta declined a near pair", netName, force, objs, kind)
					}
					for k := range want {
						if got[k] != want[k] {
							t.Fatalf("%s force=%v objs=%v %s obj %d: delta %v, full %v",
								netName, force, objs, kind, k, got[k], want[k])
						}
					}
				}
				for trial := 0; trial < 50; trial++ {
					base := randomGenome(rng, n)
					// Identical pair: zero-bit delta.
					same := moea.NewGenome(n)
					same.CopyFrom(base)
					check("clone", base, same)
					// Mutation-shaped children: 1..6 random flips.
					child := moea.NewGenome(n)
					child.CopyFrom(base)
					for j := 0; j <= rng.Intn(6); j++ {
						i := rng.Intn(n)
						child.Set(i, !child.Get(i))
					}
					check("mutant", base, child)
					// Crossover-shaped child: splice against another
					// random parent, delta taken from the prefix parent.
					other := randomGenome(rng, n)
					check("splice", base, spliceChild(base, other, rng.Intn(n+1), n))
				}
			}
		}
	}
}

// TestDeltaOracleMixedProviders covers the mixed incremental path: a
// flip-able linear objective alongside a genome-level objective without
// flip deltas. The linear slot goes incremental, the genome slot is
// fully evaluated per child, and both must match the full evaluation —
// including the forced-critical union the genome evaluator sees.
func TestDeltaOracleMixedProviders(t *testing.T) {
	registerPopcountOnce.Do(func() { MustRegisterObjective(popcountObjective{}) })
	a := analyzeNet(t, fixture.PaperExample())
	for _, force := range []bool{false, true} {
		p, err := NewProblemWithObjectives(a, force, []string{"damage", "popcount_test"})
		if err != nil {
			t.Fatal(err)
		}
		if !p.CanDelta() {
			t.Fatal("CanDelta() = false with one flip-able objective")
		}
		n := p.NumBits()
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 100; trial++ {
			base := randomGenome(rng, n)
			child := moea.NewGenome(n)
			child.CopyFrom(base)
			for j := 0; j <= rng.Intn(4); j++ {
				i := rng.Intn(n)
				child.Set(i, !child.Get(i))
			}
			m := p.NumObjectives()
			baseObj := make([]float64, m)
			want := make([]float64, m)
			got := make([]float64, m)
			p.Evaluate(base, baseObj)
			p.Evaluate(child, want)
			if !p.EvaluateDelta(child, base, baseObj, got) {
				t.Fatal("EvaluateDelta declined")
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("force=%v obj %d: delta %v, full %v", force, k, got[k], want[k])
				}
			}
		}
	}
}

// TestDeltaOracleDeclines pins the fallback contract: pairs beyond the
// deltaLimit cutoff and mismatched genome lengths decline, leaving the
// caller to evaluate fully. The cutoff counts only non-forced bits.
func TestDeltaOracleDeclines(t *testing.T) {
	net := benchnets.Random(benchnets.RandomOptions{Seed: 101, TargetPrims: 400})
	a := analyzeNet(t, net)
	p := NewProblem(a, false)
	n := p.NumBits()
	if p.deltaLimit >= n {
		t.Skipf("problem too small to exceed deltaLimit (%d bits, limit %d)", n, p.deltaLimit)
	}
	base := moea.NewGenome(n)
	far := moea.NewGenome(n)
	for i := 0; i < n; i++ {
		far.Set(i, true)
	}
	out := make([]float64, 2)
	baseObj := make([]float64, 2)
	p.Evaluate(base, baseObj)
	if p.EvaluateDelta(far, base, baseObj, out) {
		t.Errorf("all-bits-differ pair (%d > limit %d) not declined", n, p.deltaLimit)
	}
	short := moea.NewGenome(n + 64)
	if p.EvaluateDelta(short, base, baseObj, out) {
		t.Error("mismatched genome lengths not declined")
	}
	// Just under the cutoff still goes incremental and stays exact.
	near := moea.NewGenome(n)
	for i := 0; i < p.deltaLimit; i++ {
		near.Set(i, true)
	}
	want := make([]float64, 2)
	p.Evaluate(near, want)
	if !p.EvaluateDelta(near, base, baseObj, out) {
		t.Fatalf("pair at the cutoff (%d bits) declined", p.deltaLimit)
	}
	if out[0] != want[0] || out[1] != want[1] {
		t.Errorf("at-cutoff delta (%v,%v), full (%v,%v)", out[0], out[1], want[0], want[1])
	}
}
