package main

import (
	"fmt"

	"rsnrobust/internal/baseline"
	"rsnrobust/internal/faults"
)

// exactFront is the exact Pareto front of the separable hardening
// problem: baseline.Exact swept over every cost budget, keeping the
// budgets where the optimal residual damage strictly drops.
func exactFront(a *faults.Analysis) []point {
	ex := baseline.NewExact(a)
	var pts []point
	for b := int64(0); b <= a.MaxCost(); b++ {
		d := ex.MinDamageWithCostAtMost(b)
		if len(pts) == 0 || d < pts[len(pts)-1].damage {
			pts = append(pts, point{b, d})
		}
	}
	return pts
}

// frontOracle checks a returned front against the analysis it should
// trade off: mutually nondominated, inside the objective box, and no
// better than the exact front. It returns HV(front)/HV(exact front),
// both against the fixed reference point (MaxCost+1, TotalDamage+1).
// exact may be nil to skip the exact comparison (ratio 0).
func frontOracle(pts []point, a *faults.Analysis, exact []point) (float64, error) {
	if len(pts) == 0 {
		return 0, fmt.Errorf("empty front")
	}
	if i, j, ok := nondominated(pts); !ok {
		return 0, fmt.Errorf("point %d %v dominates point %d %v", i, pts[i], j, pts[j])
	}
	for _, p := range pts {
		if p.cost < 0 || p.cost > a.MaxCost() || p.damage < 0 || p.damage > a.TotalDamage {
			return 0, fmt.Errorf("point %v outside [0,%d]×[0,%d]", p, a.MaxCost(), a.TotalDamage)
		}
	}
	if exact == nil {
		return 0, nil
	}
	rc, rd := a.MaxCost()+1, a.TotalDamage+1
	hv, err := hypervolume(pts, rc, rd)
	if err != nil {
		return 0, err
	}
	hx, err := hypervolume(exact, rc, rd)
	if err != nil {
		return 0, err
	}
	if hv > hx {
		return 0, fmt.Errorf("front hypervolume %d exceeds the exact front's %d", hv, hx)
	}
	return float64(hv) / float64(hx), nil
}
