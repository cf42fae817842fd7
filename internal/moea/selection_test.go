package moea

import (
	"math"
	"math/rand"
	"testing"
)

// TestSelectionOracle checks the read-driven two-objective selection
// (select2) against the full fitness assignment followed by
// environmental selection with the pairwise truncation: the same
// archive order, the same individuals, and bit-identical objectives,
// fitness and density, for underfull, exactly full and overfull
// archives at one and three workers. Every individual carries a
// distinct genome, so a reordering of equal-fitness individuals shows.
func TestSelectionOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var fs fitScratch
	var ss selScratch
	cases := map[string]int{}
	for trial := 0; trial < 120; trial++ {
		n := 5 + rng.Intn(300)
		union := make([]Individual, n)
		for i := range union {
			var o0, o1 float64
			switch trial % 3 {
			case 0: // continuous
				o0, o1 = rng.Float64()*10, rng.Float64()*10
			case 1: // small integer grid: heavy ties and duplicates
				o0, o1 = float64(rng.Intn(8)), float64(rng.Intn(8))
			default: // a chain-heavy grid: many nondominated points
				x := rng.Intn(n)
				o0, o1 = float64(x), float64(n-x+rng.Intn(3))
			}
			union[i] = Individual{G: Genome{uint64(i)}, Obj: []float64{o0, o1}}
		}
		ref := append([]Individual(nil), union...)
		assignFitness(ref, 2, 1, nil)
		nd := 0
		for i := range ref {
			if ref[i].fitness < 1 {
				nd++
			}
		}
		for _, capacity := range []int{max(nd/2, 1), max(nd-1, 1), nd, nd + 1, (nd + n) / 2, n, n + 3} {
			want := environmentalSelection(append([]Individual(nil), ref...), capacity, 2, nil)
			switch {
			case nd > capacity:
				cases["overfull"]++
			case nd == capacity:
				cases["full"]++
			default:
				cases["underfull"]++
			}
			for _, workers := range []int{1, 3} {
				got := select2(union, capacity, workers, &fs, &ss)
				if len(got) != len(want) {
					t.Fatalf("trial %d capacity %d workers %d: archive size %d, want %d", trial, capacity, workers, len(got), len(want))
				}
				for i := range got {
					g, w := got[i], want[i]
					if g.G[0] != w.G[0] || &g.Obj[0] != &w.Obj[0] ||
						math.Float64bits(g.fitness) != math.Float64bits(w.fitness) ||
						math.Float64bits(g.density) != math.Float64bits(w.density) {
						t.Fatalf("trial %d capacity %d workers %d: archive[%d] = #%d (F %v, D %v), want #%d (F %v, D %v)",
							trial, capacity, workers, i, g.G[0], g.fitness, g.density, w.G[0], w.fitness, w.density)
					}
				}
			}
		}
	}
	for _, c := range []string{"underfull", "full", "overfull"} {
		if cases[c] == 0 {
			t.Errorf("no %s archive exercised", c)
		}
	}
}
