package moea

import (
	"math/rand"
	"testing"
)

// BenchmarkAssignFitness2 exercises the two-objective fitness fast path
// on a union shaped like a converged selective-hardening population:
// obj0 spread over a wide integer range, obj1 over a narrow one, both
// with heavy ties and exact duplicates.
func BenchmarkAssignFitness2(b *testing.B) {
	for _, n := range []int{128, 416} {
		b.Run(itoa(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			union := make([]Individual, n)
			for i := range union {
				base := float64(rng.Intn(n / 4))
				union[i] = Individual{Obj: []float64{
					1e6 * base * (1 + rng.Float64()*0.001),
					float64(rng.Intn(80)),
				}}
			}
			var s fitScratch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				assignFitness(union, 2, 1, &s)
			}
		})
	}
}

// BenchmarkSelect2 exercises the whole two-objective selection step —
// fitness plus environmental selection — on a 600-individual union,
// read-driven (select2) against the full assignment it replaces
// (assignFitness + environmentalSelection). The underfull union is the
// converged shape of BenchmarkAssignFitness2, few nondominated points;
// the overfull one is a noisy trade-off chain with about 200
// nondominated points for an archive of 100.
func BenchmarkSelect2(b *testing.B) {
	const n = 600
	shapes := []struct {
		name     string
		capacity int
		point    func(rng *rand.Rand) []float64
	}{
		{"underfull", n / 2, func(rng *rand.Rand) []float64 {
			base := float64(rng.Intn(n / 4))
			return []float64{1e6 * base * (1 + rng.Float64()*0.001), float64(rng.Intn(80))}
		}},
		{"overfull", n / 6, func(rng *rand.Rand) []float64 {
			x := float64(rng.Intn(4 * n))
			return []float64{x, float64(4*n) - x + float64(rng.Intn(40))}
		}},
	}
	for _, sh := range shapes {
		rng := rand.New(rand.NewSource(7))
		union := make([]Individual, n)
		for i := range union {
			union[i] = Individual{Obj: sh.point(rng)}
		}
		b.Run(sh.name+"/read-driven", func(b *testing.B) {
			var fs fitScratch
			var ss selScratch
			for i := 0; i < b.N; i++ {
				select2(union, sh.capacity, 1, &fs, &ss)
			}
		})
		b.Run(sh.name+"/full", func(b *testing.B) {
			var fs fitScratch
			var ss selScratch
			for i := 0; i < b.N; i++ {
				assignFitness(union, 2, 1, &fs)
				environmentalSelection(union, sh.capacity, 2, &ss)
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
