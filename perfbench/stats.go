package main

import (
	"fmt"
	"math"
	"sort"
)

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []int{99, 95, 90}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// rank is the 1-based nearest-rank index of percentile p in n samples.
func rank(n, p int) int {
	k := (n*p + 99) / 100
	if k < 1 {
		k = 1
	}
	return k
}

// beyond is the number of samples strictly above the nearest-rank
// percentile p of n samples.
func beyond(n, p int) int { return n - rank(n, p) }

// tailPercentile returns the highest of p99/p95/p90 that leaves at
// least minBeyond samples beyond it; ok is false when even p90 does not.
func tailPercentile(n int) (p int, ok bool) {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// minSamples is the smallest sample count for which percentile p has
// minBeyond samples beyond it.
func minSamples(p int) int {
	n := 1
	for beyond(n, p) < minBeyond {
		n++
	}
	return n
}

// percentile returns the nearest-rank percentile p of xs (not modified).
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// median is the middle value of xs (mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// passRate is a closed loop's throughput as the rate of its median pass:
// the n operations of a pass over that pass's CPU seconds[k]. A stretch
// in which the host runs slow stays confined to the passes it hits
// instead of moving the whole run.
func passRate(n int, seconds []float64) float64 {
	rates := make([]float64, len(seconds))
	for k := range seconds {
		rates[k] = float64(n) / seconds[k]
	}
	return median(rates)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// point is one (cost, damage) trade-off of a hardening front; both
// objectives are minimized.
type point struct{ cost, damage int64 }

// hypervolume is the area of the region inside the reference box
// [0,refCost)×[0,refDamage) dominated by pts: a staircase sweep in
// increasing cost. Dominated and duplicate points add nothing; points
// on or outside the box edge add nothing. Objectives are integers, so
// the area is exact.
func hypervolume(pts []point, refCost, refDamage int64) (int64, error) {
	if refCost > 0 && refDamage > math.MaxInt64/refCost {
		return 0, fmt.Errorf("hypervolume: reference box %d×%d overflows int64", refCost, refDamage)
	}
	s := append([]point(nil), pts...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].cost != s[j].cost {
			return s[i].cost < s[j].cost
		}
		return s[i].damage < s[j].damage
	})
	var area int64
	level := refDamage
	for _, p := range s {
		if p.cost >= refCost || p.cost < 0 || p.damage < 0 {
			continue
		}
		if p.damage < level {
			area += (refCost - p.cost) * (level - p.damage)
			level = p.damage
		}
	}
	return area, nil
}

// nondominated reports the first pair (i, j) where pts[i] dominates
// pts[j]; ok is true when the set is mutually nondominated. Equal
// points do not dominate each other.
func nondominated(pts []point) (i, j int, ok bool) {
	for i := range pts {
		for j := range pts {
			a, b := pts[i], pts[j]
			if a.cost <= b.cost && a.damage <= b.damage && (a.cost < b.cost || a.damage < b.damage) {
				return i, j, false
			}
		}
	}
	return 0, 0, true
}
