package moea

// This file holds the quality indicators consumed by the telemetry
// layer's per-generation convergence stats. The raw K-objective
// Hypervolume lives in dominance.go; here are the derived forms.

// RefPoint returns the standard hypervolume reference point for the
// selective-hardening problem: one coordinate per objective, each
// padded per dimension to max*1.01 + 1 — slightly beyond that
// objective's extreme value, so that the trivial solutions (nothing
// hardened and everything hardened) both contribute positive volume.
// The historical two-argument call sites keep compiling unchanged.
func RefPoint(maxes ...float64) []float64 {
	ref := make([]float64, len(maxes))
	for k, v := range maxes {
		ref[k] = v*1.01 + 1
	}
	return ref
}

// NormalizedHypervolume returns the dominated hypervolume as a fraction
// of the reference box volume (the product of the ref coordinates), in
// [0, 1]. It is the scale-free convergence indicator recorded per
// generation: comparable across networks whose absolute objective
// ranges differ by orders of magnitude.
func NormalizedHypervolume(front []Individual, ref []float64) float64 {
	box := 1.0
	for _, r := range ref {
		box *= r
	}
	if len(ref) == 0 || box <= 0 {
		return 0
	}
	return Hypervolume(front, ref) / box
}
