package core

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"rsnrobust/internal/faults"
	"rsnrobust/internal/moea"
	"rsnrobust/internal/sptree"
	"rsnrobust/internal/yield"
)

// This file is the objective-provider subsystem: the K-objective
// generalization of the optimizer's view of the hardening problem.
// Every objective is identified by name, registered in a global
// registry whose registration order defines the canonical objective
// order, and compiled against a completed criticality analysis into
// either a linear form (base + per-primitive integer weights, summed
// over the set bits and updated per flipped bit by delta evaluation) or
// an opaque genome-level evaluator.
//
// All four built-in objectives are affine in the hardened-bit set, so
// they share one exact integer evaluation pipeline: residual damage
// (base = total damage, weight −d_j), hardening cost (weight +c_j),
// test-time overhead (weight = the number of instrument access
// patterns whose scan path traverses primitive j) and expected-yield
// loss (fixed-point micro-damage weights from the Poisson defect
// model). Integer weights keep full and incremental (delta) evaluation
// bit-identical — float64 sums would depend on summation order.

// Built-in objective names, in canonical order.
const (
	ObjDamage    = "damage"
	ObjCost      = "cost"
	ObjTestTime  = "test_time"
	ObjYieldLoss = "yield_loss"
)

// ObjectiveProvider names one optimization objective. A provider must
// additionally implement LinearObjective or GenomeObjective to be
// usable; Name is the identity used by Options.Objectives, the CLI
// -objectives flags and the serve API.
type ObjectiveProvider interface {
	Name() string
}

// LinearObjective is the per-primitive contribution form: the
// objective value of a hardening genome is
//
//	base + Σ_{j hardened} weights[j]
//
// with weights indexed in analysis bit order (a.Prims). Scale divides
// the integer value into reported units (1 means the value is already
// in natural units); the optimizer always works on the undivided
// integers so full and delta evaluation agree exactly.
type LinearObjective interface {
	ObjectiveProvider
	Linear(a *faults.Analysis) (base int64, weights []int64, scale float64, err error)
}

// GenomeObjective is the genome-level evaluator form for objectives
// that are not linear in the hardened set. Evaluator returns the
// evaluation function (which must be safe for concurrent calls and
// treat the genome as read-only) and an inclusive upper bound on the
// objective value, used for the hypervolume reference point.
type GenomeObjective interface {
	ObjectiveProvider
	Evaluator(a *faults.Analysis) (eval func(g moea.Genome) float64, max float64, err error)
}

// DeltaProvider is the optional incremental-evaluation extension of the
// provider protocol. FlipDeltas returns, in analysis bit order, the
// exact integer change of the objective value when bit i flips 0→1 (the
// 1→0 change is its negation), valid from any base genome — i.e. the
// objective must be affine in the hardened-bit set. LinearObjective
// providers get this for free (their weights are the flip deltas);
// GenomeObjective providers may opt in by implementing it, and those
// that cannot promise exactness simply don't — the problem then
// evaluates that objective fully on every child while the flip-able
// objectives still go incremental.
type DeltaProvider interface {
	ObjectiveProvider
	FlipDeltas(a *faults.Analysis) ([]int64, error)
}

// objectiveRegistry is the global provider registry. Registration
// order defines the canonical objective order used everywhere a list
// of objective names is normalized (CLI flags, the serve API and its
// cache key, Options.Objectives).
var objectiveRegistry = struct {
	sync.Mutex
	order  []string
	byName map[string]ObjectiveProvider
}{byName: map[string]ObjectiveProvider{}}

// RegisterObjective adds a provider to the registry. The name must be
// non-empty and unused, and the provider must implement LinearObjective
// or GenomeObjective.
func RegisterObjective(p ObjectiveProvider) error {
	name := p.Name()
	if name == "" {
		return fmt.Errorf("core: objective provider with empty name")
	}
	switch p.(type) {
	case LinearObjective, GenomeObjective:
	default:
		return fmt.Errorf("core: objective %q implements neither LinearObjective nor GenomeObjective", name)
	}
	objectiveRegistry.Lock()
	defer objectiveRegistry.Unlock()
	if _, dup := objectiveRegistry.byName[name]; dup {
		return fmt.Errorf("core: objective %q already registered", name)
	}
	objectiveRegistry.byName[name] = p
	objectiveRegistry.order = append(objectiveRegistry.order, name)
	return nil
}

// MustRegisterObjective is RegisterObjective that panics on error (the
// init-time form).
func MustRegisterObjective(p ObjectiveProvider) {
	if err := RegisterObjective(p); err != nil {
		panic(err)
	}
}

// ObjectiveNames returns the registered objective names in canonical
// (registration) order.
func ObjectiveNames() []string {
	objectiveRegistry.Lock()
	defer objectiveRegistry.Unlock()
	return append([]string(nil), objectiveRegistry.order...)
}

// LookupObjective returns the provider registered under name.
func LookupObjective(name string) (ObjectiveProvider, bool) {
	objectiveRegistry.Lock()
	defer objectiveRegistry.Unlock()
	p, ok := objectiveRegistry.byName[name]
	return p, ok
}

// DefaultObjectives returns the paper's objective pair.
func DefaultObjectives() []string { return []string{ObjDamage, ObjCost} }

// CanonicalObjectives validates and normalizes an objective-name list:
// names are trimmed, resolved against the registry (unknown names
// error, listing what is registered), deduplicated and reordered into
// canonical registry order — so any two requests for the same
// objective set produce the same list, the same optimizer run and the
// same cache key. An empty list canonicalizes to DefaultObjectives.
// At least two distinct objectives are required: the trade-off front
// and the constrained picks are meaningless below that.
func CanonicalObjectives(names []string) ([]string, error) {
	if len(names) == 0 {
		return DefaultObjectives(), nil
	}
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		n = strings.TrimSpace(n)
		if _, ok := LookupObjective(n); !ok {
			return nil, fmt.Errorf("core: unknown objective %q (registered: %s)",
				n, strings.Join(ObjectiveNames(), ", "))
		}
		seen[n] = true
	}
	var out []string
	for _, n := range ObjectiveNames() {
		if seen[n] {
			out = append(out, n)
		}
	}
	if len(out) < 2 {
		return nil, fmt.Errorf("core: at least two distinct objectives are required, got %v", out)
	}
	return out, nil
}

// ParseObjectives splits a comma-separated objective list (the CLI
// -objectives flag syntax) and canonicalizes it; an empty string
// selects the default pair.
func ParseObjectives(s string) ([]string, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return DefaultObjectives(), nil
	}
	return CanonicalObjectives(strings.Split(s, ","))
}

func isDefaultObjectives(names []string) bool {
	return len(names) == 2 && names[0] == ObjDamage && names[1] == ObjCost
}

// damageProvider is the paper's first objective: residual damage
// Σ_{j unhardened} d_j = TotalDamage − Σ_{j hardened} d_j.
type damageProvider struct{}

func (damageProvider) Name() string { return ObjDamage }

func (damageProvider) Linear(a *faults.Analysis) (int64, []int64, float64, error) {
	w := make([]int64, len(a.Prims))
	var total int64
	for i, id := range a.Prims {
		w[i] = -a.Damage[id]
		total += a.Damage[id]
	}
	return total, w, 1, nil
}

// costProvider is the paper's second objective: hardening cost
// Σ_{j hardened} c_j.
type costProvider struct{}

func (costProvider) Name() string { return ObjCost }

func (costProvider) Linear(a *faults.Analysis) (int64, []int64, float64, error) {
	w := make([]int64, len(a.Prims))
	for i, id := range a.Prims {
		w[i] = a.Spec.Cost[id]
	}
	return 0, w, 1, nil
}

// testTimeProvider models the test-time overhead of hardening: a
// hardened segment adds one extra shift cycle to every access pattern
// whose scan path traverses it (the guard latch of the isolation
// wrapper sits on the scan path). The objective is the total extra
// shift cycles over the network's instrument access patterns — one
// pattern per instrument, routed along the active path the
// decomposition tree implies: ancestors of the target are always
// traversed, and at a parallel section that does not contain the
// target the shortest branch (ties to the left) is selected.
type testTimeProvider struct{}

func (testTimeProvider) Name() string { return ObjTestTime }

func (testTimeProvider) Linear(a *faults.Analysis) (int64, []int64, float64, error) {
	return 0, testTimeWeights(a), 1, nil
}

// testTimeWeights returns, in analysis bit order, the number of
// instrument access patterns whose scan path traverses each primitive.
// Both passes walk the tree arena by index: sptree allocates children
// strictly before parents, so ascending order is bottom-up and
// descending order is top-down.
func testTimeWeights(a *faults.Analysis) []int64 {
	t := a.Tree
	n := t.Size()
	instr := make([]int64, n)  // instruments hosted in the subtree
	minLen := make([]int64, n) // primitives on the shortest path through it
	for ref := sptree.NodeRef(0); int(ref) < n; ref++ {
		switch t.OpOf(ref) {
		case sptree.OpLeaf:
			id := t.PrimOf(ref)
			if nd := a.Net.Node(id); nd.Instr != nil {
				instr[ref] = 1
			}
			minLen[ref] = 1
		case sptree.OpSeries:
			l, r := t.Children(ref)
			instr[ref] = instr[l] + instr[r]
			minLen[ref] = minLen[l] + minLen[r]
		case sptree.OpParallel:
			l, r := t.Children(ref)
			instr[ref] = instr[l] + instr[r]
			minLen[ref] = minLen[l]
			if minLen[r] < minLen[l] {
				minLen[ref] = minLen[r]
			}
		}
	}
	// cnt[ref] = access patterns that traverse the whole subtree. Every
	// access shifts through the full active chain, so the root sees one
	// traversal per instrument; series children inherit their parent's
	// count; at a parallel node the patterns targeting a branch follow
	// it, and the rest take the default (shortest, ties left) branch.
	cnt := make([]int64, n)
	root := t.Root()
	if root >= 0 {
		cnt[root] = instr[root]
	}
	for ref := sptree.NodeRef(n - 1); ref >= 0; ref-- {
		c := cnt[ref]
		switch t.OpOf(ref) {
		case sptree.OpSeries:
			l, r := t.Children(ref)
			cnt[l] += c
			cnt[r] += c
		case sptree.OpParallel:
			l, r := t.Children(ref)
			pass := c - instr[l] - instr[r] // patterns targeting outside this section
			cnt[l] += instr[l]
			cnt[r] += instr[r]
			if minLen[l] <= minLen[r] {
				cnt[l] += pass
			} else {
				cnt[r] += pass
			}
		}
	}
	w := make([]int64, len(a.Prims))
	for i, id := range a.Prims {
		if leaf := t.LeafOf(id); leaf != sptree.NilRef {
			w[i] = cnt[leaf]
		}
	}
	return w
}

// yieldScale is the fixed-point scale of the yield-loss objective:
// expected damage is a float in the Poisson model, but the optimizer
// needs integer weights for exact full/delta agreement, so the
// provider works in micro-damage units. With damages up to ~2^31 the
// scaled values stay far below 2^53, so the float64 objective slots
// remain exact.
const yieldScale = 1e6

// yieldLossProvider is the expected-yield-loss objective: the expected
// criticality-weighted damage of a manufactured device under the
// Poisson defect model (yield.Model), first-order in the defect
// probabilities — hardening primitive j moves its defect rate from λ
// to λ·HardenedFactor, reducing the expectation by
// (p_unhardened − p_hardened)·d_j.
type yieldLossProvider struct {
	model yield.Model
}

func (yieldLossProvider) Name() string { return ObjYieldLoss }

func (y yieldLossProvider) Linear(a *faults.Analysis) (int64, []int64, float64, error) {
	m := y.model
	if m == (yield.Model{}) {
		m = yield.DefaultModel
	}
	var base int64
	w := make([]int64, len(a.Prims))
	for i, id := range a.Prims {
		area := a.Spec.Cost[id]
		d := float64(a.Damage[id])
		pu := m.FailProb(area, false)
		ph := m.FailProb(area, true)
		base += int64(math.Round(pu * d * yieldScale))
		w[i] = int64(math.Round((ph - pu) * d * yieldScale))
	}
	return base, w, yieldScale, nil
}

func init() {
	MustRegisterObjective(damageProvider{})
	MustRegisterObjective(costProvider{})
	MustRegisterObjective(testTimeProvider{})
	MustRegisterObjective(yieldLossProvider{})
}

// compiledObjective is one objective compiled against an analysis,
// ready for evaluation: either the linear form (base and weights) or a
// genome-level evaluator.
type compiledObjective struct {
	name    string
	base    int64
	weights []int64
	scale   float64 // divides integer values into reported units
	eval    func(moea.Genome) float64
	max     float64 // inclusive upper bound, for the reference point
	// flip holds the per-bit 0→1 deltas of the incremental path: the
	// linear weights themselves, or a DeltaProvider's FlipDeltas for a
	// genome-level objective that opted in. Nil means the objective must
	// be evaluated fully on every child.
	flip []int64
}

// compileObjectives builds the general-path objective set in canonical
// order. names must already be canonical.
func compileObjectives(a *faults.Analysis, names []string) ([]compiledObjective, error) {
	objs := make([]compiledObjective, 0, len(names))
	for _, name := range names {
		p, ok := LookupObjective(name)
		if !ok {
			return nil, fmt.Errorf("core: unknown objective %q (registered: %s)",
				name, strings.Join(ObjectiveNames(), ", "))
		}
		co := compiledObjective{name: name, scale: 1}
		switch prov := p.(type) {
		case LinearObjective:
			base, w, scale, err := prov.Linear(a)
			if err != nil {
				return nil, fmt.Errorf("core: objective %q: %w", name, err)
			}
			if len(w) != len(a.Prims) {
				return nil, fmt.Errorf("core: objective %q: %d weights for %d primitives", name, len(w), len(a.Prims))
			}
			co.base, co.weights = base, w
			co.flip = w
			if scale > 0 {
				co.scale = scale
			}
			hi := base
			for _, x := range w {
				if x > 0 {
					hi += x
				}
			}
			co.max = float64(hi)
		case GenomeObjective:
			eval, max, err := prov.Evaluator(a)
			if err != nil {
				return nil, fmt.Errorf("core: objective %q: %w", name, err)
			}
			co.eval, co.max = eval, max
			if dp, ok := p.(DeltaProvider); ok {
				flip, err := dp.FlipDeltas(a)
				if err != nil {
					return nil, fmt.Errorf("core: objective %q: %w", name, err)
				}
				if len(flip) != len(a.Prims) {
					return nil, fmt.Errorf("core: objective %q: %d flip deltas for %d primitives", name, len(flip), len(a.Prims))
				}
				co.flip = flip
			}
		default:
			return nil, fmt.Errorf("core: objective %q implements neither LinearObjective nor GenomeObjective", name)
		}
		objs = append(objs, co)
	}
	return objs, nil
}
