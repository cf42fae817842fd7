package moea

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
)

// SPEA2 runs the Strength Pareto Evolutionary Algorithm 2 of Zitzler,
// Laumanns and Thiele on the given problem:
//
//  1. fitness assignment over the union of population and archive:
//     strength S(i) = number of individuals i dominates, raw fitness
//     R(i) = sum of the strengths of i's dominators, density
//     D(i) = 1/(σ_i^k + 2) with σ_i^k the distance to the k-th nearest
//     neighbour (k = sqrt(|union|)), F(i) = R(i) + D(i);
//  2. environmental selection: all nondominated individuals (F < 1)
//     enter the next archive; an overfull archive is truncated by
//     iteratively removing the individual with the smallest
//     nearest-neighbour distance, an underfull one is filled with the
//     best dominated individuals;
//  3. binary-tournament mating selection on the archive, one-point
//     crossover and per-bit mutation produce the next population.
//
// Population initialization, batched (optionally parallel and memoized)
// objective evaluation, evaluation accounting, buffer recycling,
// checkpointing, cancellation and the OnGeneration protocol live in the
// shared engine runtime. Cancellation (Params.Context) is observed at
// the loop top and at evaluation-chunk boundaries; an interrupted run
// returns a valid partial Result with Interrupted set, never an error.
func SPEA2(p Problem, par Params) (*Result, error) {
	if par.Islands > 1 {
		return runIslands("spea2", p, par)
	}
	e, err := newEngine(p, &par)
	if err != nil {
		return nil, err
	}
	r, gen0, err := newSPEA2Run(e)
	if err != nil {
		if errors.Is(err, ErrInterrupted) {
			e.res.Interrupted = true
			return e.finish(r.pop), nil
		}
		return nil, err
	}
	for gen := gen0; gen < par.Generations; gen++ {
		if e.stopRequested() {
			// The loop top is a consistent boundary — checkpoint it, so
			// SIGINT loses no completed generation.
			e.res.Interrupted = true
			if cerr := e.checkpointNow("spea2", gen, r.pop, r.archive); cerr != nil {
				return nil, cerr
			}
			break
		}
		if cerr := e.checkpointIfDue("spea2", gen, gen0, r.pop, r.archive); cerr != nil {
			return nil, cerr
		}
		if err := r.selectPhase(gen); err != nil {
			return nil, err
		}
		if !e.hooks(gen, r.archive) || gen == par.Generations-1 {
			break
		}
		if err := r.breedPhase(); err != nil {
			if errors.Is(err, ErrInterrupted) {
				// Mid-batch cancellation: the half-evaluated offspring are
				// discarded; the archive from the last completed selection
				// is the partial result.
				e.res.Interrupted = true
				break
			}
			return nil, err
		}
	}
	return e.finish(r.current()), nil
}

// spea2Run is SPEA-2 decomposed into the two phases the island driver
// interleaves with migration: selection (fitness over the union,
// environmental selection into the archive) and breeding (recycle the
// dead, tournament-select and vary the next population). The classic
// single-population loop above is exactly selectPhase ∘ breedPhase.
type spea2Run struct {
	e       *engine
	pop     []Individual
	archive []Individual
	// lastUnion is the union buffer of the last selectPhase, still
	// holding the dead individuals breedPhase must recycle.
	lastUnion []Individual
}

// newSPEA2Run initializes or resumes a run, returning the generation to
// re-enter the loop at.
func newSPEA2Run(e *engine) (*spea2Run, int, error) {
	pop, archive, gen0, err := e.start("spea2")
	return &spea2Run{e: e, pop: pop, archive: archive}, gen0, err
}

// selectPhase runs fitness assignment and environmental selection for
// generation gen, leaving the new archive in place and counting the
// generation as completed. The error is always nil (SPEA-2 evaluates
// during breeding, not selection); the signature matches nsga2Run for
// the island driver.
func (r *spea2Run) selectPhase(gen int) error {
	e := r.e
	union := e.unionInto(r.pop, r.archive)
	if e.m == 2 {
		r.archive = select2(union, e.par.Archive, e.exec.Workers(), &e.fit, &e.sel)
	} else {
		assignFitness(union, e.m, e.exec.Workers(), &e.fit)
		r.archive = environmentalSelection(union, e.par.Archive, e.m, &e.sel)
	}
	r.lastUnion = union
	e.res.Generations = gen + 1
	return nil
}

// breedPhase recycles the non-survivors of the last selection and
// breeds (and evaluates) the next population from the archive.
func (r *spea2Run) breedPhase() error {
	e := r.e
	e.recycle(r.lastUnion, r.archive)
	var err error
	r.pop, err = e.offspring(r.pop, spea2Tournament(r.archive, e.par, e.rng))
	return err
}

// current is the best set to extract a front from: the archive after
// the first selection, the initial population before it.
func (r *spea2Run) current() []Individual {
	if r.archive == nil {
		return r.pop
	}
	return r.archive
}

// Island-driver hooks: SPEA-2 migrates through the archive, ordered by
// its fitness F (lower is better).
func (r *spea2Run) eng() *engine                 { return r.e }
func (r *spea2Run) pool() []Individual           { return r.archive }
func (r *spea2Run) better(a, b *Individual) bool { return a.fitness < b.fitness }
func (r *spea2Run) snapshot(gen int) *Checkpoint {
	return r.e.snapshot("spea2", gen, r.pop, r.archive)
}

// spea2Tournament is SPEA-2's mating selection: the best-fitness winner
// of a size-TournamentSize tournament over the archive.
func spea2Tournament(archive []Individual, par *Params, rng *rand.Rand) func() *Individual {
	return func() *Individual {
		best := rng.Intn(len(archive))
		for t := 1; t < par.TournamentSize; t++ {
			if c := rng.Intn(len(archive)); archive[c].fitness < archive[best].fitness {
				best = c
			}
		}
		return &archive[best]
	}
}

// fitScratch is the reusable per-generation scratch of the fitness
// assignment: dominance bookkeeping plus the sweep-order arrays of the
// two-objective fast path.
type fitScratch struct {
	strength   []int
	domBy      [][]int32
	obj0, obj1 []float64
	ord        []int
	// Fenwick-sweep scratch of the two-objective strength/raw-fitness
	// computation: sorted/deduped obj1 values, y ranks, the tree itself,
	// duplicate counts and the per-individual raw fitness.
	ys        []float64
	rank      []int
	fen       []int
	dup, rawf []int
	// Distinct-point grouping of the density search: group start offsets
	// into ord (ng+1 entries), group coordinates and multiplicities, each
	// individual's group, the per-group density (negative until queried)
	// and the groups of the pending batch query.
	ng     int
	gs     []int
	g0, g1 []float64
	gcnt   []int
	gid    []int32
	gd     []float64
	queue  []int32
	// The k-NN query parameters and the uniform-grid buckets of its ring
	// search: CSR cell offsets, the points of each cell, and each
	// point's cell.
	k, grid              int
	lo0, lo1, inv0, inv1 float64
	cellStart            []int
	cellPts              []int32
	cellIdx              []int32
	// Packed per-slot point data in cell order: coordinates and
	// multiplicity of cellPts[p], so the scan reads contiguous memory
	// instead of three indexed loads through the group arrays.
	cellD0, cellD1 []float64
	cellC          []int32
}

// domByFor returns the dominator-list array resized to n with every
// list emptied (inner capacities are retained across generations).
func (s *fitScratch) domByFor(n int) [][]int32 {
	if cap(s.domBy) < n {
		s.domBy = make([][]int32, n)
	}
	s.domBy = s.domBy[:n]
	for i := range s.domBy {
		s.domBy[i] = s.domBy[i][:0]
	}
	return s.domBy
}

// assignFitness computes the SPEA-2 fitness F = R + D for every
// individual of the union. The k-NN density loop is independent per
// individual and is spread over the workers; the result is identical at
// any worker count. A nil scratch allocates fresh buffers. For two
// objectives the engine runs select2 instead, which computes only the
// values selection reads; this full assignment is its test oracle.
func assignFitness(union []Individual, m, workers int, s *fitScratch) {
	if s == nil {
		s = &fitScratch{}
	}
	if m == 2 {
		assignFitness2(union, workers, s)
		return
	}
	n := len(union)
	s.strength = grow(s.strength, n)
	strength := s.strength
	clear(strength)
	domBy := s.domByFor(n) // dominators of i
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if Dominates(union[i].Obj, union[j].Obj) {
				strength[i]++
				domBy[j] = append(domBy[j], int32(i))
			} else if Dominates(union[j].Obj, union[i].Obj) {
				strength[j]++
				domBy[i] = append(domBy[i], int32(j))
			}
		}
	}
	_, invRange := normalizeRanges(union, m)
	k := kNearest(n)
	parallelFor(n, workers, func(lo, hi int) {
		sel := getKSelect(k)
		defer putKSelect(sel)
		for i := lo; i < hi; i++ {
			raw := 0
			for _, j := range domBy[i] {
				raw += strength[j]
			}
			sel.reset()
			for j := 0; j < n; j++ {
				if j != i {
					sel.offer(objDist2(union[i].Obj, union[j].Obj, invRange), 1)
				}
			}
			sigma := sel.kth()
			union[i].density = 1 / (math.Sqrt(sigma) + 2)
			union[i].fitness = float64(raw) + union[i].density
		}
	})
}

// assignFitness2 is the two-objective specialization of assignFitness.
// It produces bit-identical fitness values: dominance unrolls to direct
// comparisons, and the k-th-nearest-neighbour distance comes from a
// bounded max-heap scan (the same multiset value the quickselect
// returned) with the distance arithmetic of objDist2.
func assignFitness2(union []Individual, workers int, s *fitScratch) {
	s.prepare2(union)
	s.queue = s.queue[:0]
	for t := 0; t < s.ng; t++ {
		s.queue = append(s.queue, int32(t))
	}
	s.queryBatch(workers)
	for i := range union {
		d := s.gd[s.gid[i]]
		union[i].density = d
		union[i].fitness = float64(s.rawf[i]) + d
	}
}

// prepare2 runs the density-independent part of the two-objective
// fitness assignment: the sweep order, strength and raw fitness, the
// grouping of exact duplicates and the k-NN grid. Every group's density
// is left unqueried.
func (s *fitScratch) prepare2(union []Individual) {
	n := len(union)
	s.obj0, s.obj1 = grow(s.obj0, n), grow(s.obj1, n)
	obj0, obj1 := s.obj0, s.obj1
	for i := range union {
		obj0[i] = union[i].Obj[0]
		obj1[i] = union[i].Obj[1]
	}
	// Sweep order: indices sorted lexicographically by (obj0, obj1) —
	// the x-grouped, duplicate-contiguous order of both the
	// strength/raw-fitness sweep and the distinct-point grouping of the
	// density search below.
	s.ord = grow(s.ord, n)
	ord := s.ord
	for i := range ord {
		ord[i] = i
	}
	slices.SortFunc(ord, func(a, b int) int {
		switch {
		case obj0[a] < obj0[b]:
			return -1
		case obj0[a] > obj0[b]:
			return 1
		case obj1[a] < obj1[b]:
			return -1
		case obj1[a] > obj1[b]:
			return 1
		}
		return 0
	})
	sweepFitness2(obj0, obj1, ord, s)
	s.inv0, s.inv1 = invRange2(obj0), invRange2(obj1)
	s.k = kNearest(n)

	// Collapse exact duplicates: converged unions concentrate onto few
	// distinct objective points, and every copy of a point has the same
	// distance multiset — the same k-th neighbour and the same density.
	// Runs of equal (obj0, obj1) are adjacent in ord; the k-NN search
	// then expands over distinct points only, offering each with its
	// multiplicity (duplicates of the query contribute exact zeros).
	s.gs = grow(s.gs, n+1)
	s.g0, s.g1 = grow(s.g0, n), grow(s.g1, n)
	s.gcnt, s.gid, s.gd = grow(s.gcnt, n), grow(s.gid, n), grow(s.gd, n)
	gs, g0, g1, gcnt, gid := s.gs, s.g0, s.g1, s.gcnt, s.gid
	ng := 0
	for st := 0; st < n; {
		i0 := ord[st]
		en := st + 1
		for en < n && obj0[ord[en]] == obj0[i0] && obj1[ord[en]] == obj1[i0] {
			en++
		}
		for p := st; p < en; p++ {
			gid[ord[p]] = int32(ng)
		}
		gs[ng], g0[ng], g1[ng], gcnt[ng] = st, obj0[i0], obj1[i0], en-st
		s.gd[ng] = -1
		ng++
		st = en
	}
	gs[ng] = n
	s.ng = ng

	// Uniform grid over the normalized objective plane, ~1 distinct
	// point per cell. A query expands Chebyshev rings of cells around
	// its own; every point of ring r is at least (r-1)/G away in
	// normalized max-norm, so once ((r-1)/G)^2 reaches the current k-th
	// distance no unvisited point can improve it. The bound is shrunk
	// by a relative 1e-9 before the comparison: cell placement and the
	// distance products round independently by a few ulps each, and
	// only skipping a candidate can corrupt the k-th value — visiting
	// one ring too many never can. The grid only orders and prunes the
	// enumeration; distances use the exact objDist2 expression, so the
	// k-th value is the same multiset statistic the pairwise loop
	// produces.
	G := 1
	for G*G < ng {
		G++
	}
	s.grid = G
	s.lo0, s.lo1 = g0[0], g1[0] // g0 ascending; g1 scanned below
	for t := 1; t < ng; t++ {
		if g1[t] < s.lo1 {
			s.lo1 = g1[t]
		}
	}
	nc := G * G
	s.cellStart = grow(s.cellStart, nc+1)
	s.cellPts, s.cellIdx = grow(s.cellPts, ng), grow(s.cellIdx, ng)
	s.cellD0, s.cellD1 = grow(s.cellD0, ng), grow(s.cellD1, ng)
	s.cellC = grow(s.cellC, ng)
	cellStart, cellPts, cellIdx := s.cellStart, s.cellPts, s.cellIdx
	cellD0, cellD1, cellC := s.cellD0, s.cellD1, s.cellC
	clear(cellStart[:nc+1])
	for t := 0; t < ng; t++ {
		cx, cy := s.cellOf(t)
		cellIdx[t] = int32(cy*G + cx)
		cellStart[cellIdx[t]+1]++
	}
	for c := 0; c < nc; c++ {
		cellStart[c+1] += cellStart[c]
	}
	for t := 0; t < ng; t++ {
		c := cellIdx[t]
		p := cellStart[c]
		cellPts[p] = int32(t)
		cellD0[p], cellD1[p], cellC[p] = g0[t], g1[t], int32(gcnt[t])
		cellStart[c]++
	}
	for c := nc; c > 0; c-- {
		cellStart[c] = cellStart[c-1]
	}
	cellStart[0] = 0
}

// cellOf returns the grid cell of group t.
func (s *fitScratch) cellOf(t int) (int, int) {
	G := s.grid
	cx := int((s.g0[t] - s.lo0) * s.inv0 * float64(G))
	cy := int((s.g1[t] - s.lo1) * s.inv1 * float64(G))
	if cx >= G {
		cx = G - 1
	}
	if cy >= G {
		cy = G - 1
	}
	return cx, cy
}

// enqueue adds the groups of the given individuals to the pending batch
// query, skipping groups already queued or queried.
func (s *fitScratch) enqueue(ids []int32) {
	for _, i := range ids {
		if t := s.gid[i]; s.gd[t] == -1 {
			s.gd[t] = -2
			s.queue = append(s.queue, t)
		}
	}
}

// queryBatch runs the pending batch query spread over the workers; the
// densities are identical at any worker count.
func (s *fitScratch) queryBatch(workers int) {
	parallelFor(len(s.queue), workers, func(lo, hi int) {
		sel := getKSelect(s.k)
		s.queryGroups(s.queue[lo:hi], sel)
		putKSelect(sel)
	})
	s.queue = s.queue[:0]
}

// queryGroups computes the density D = 1/(σ_k + 2) of each listed group
// by the k-NN ring search over the grid and stores it in gd. It is the
// one density routine of both the batch and the on-demand queries.
func (s *fitScratch) queryGroups(groups []int32, sel *kSelect) {
	k, G := s.k, s.grid
	inv0, inv1 := s.inv0, s.inv1
	cellStart, cellPts := s.cellStart, s.cellPts
	cellD0, cellD1, cellC := s.cellD0, s.cellD1, s.cellC
	invG2 := 1 / float64(G*G)
	scan := func(t int, a0, a1 float64, c int) {
		for p := cellStart[c]; p < cellStart[c+1]; p++ {
			if int(cellPts[p]) == t {
				continue
			}
			// Same expression order as objDist2, so the squared
			// distance is bit-identical to the generic path.
			x := (a0 - cellD0[p]) * inv0
			y := (a1 - cellD1[p]) * inv1
			d := x*x + y*y
			// Duplicate of offer's warm reject test, inlined: once
			// the buffer is full most candidates fail it, and the
			// compare here skips the call entirely.
			if sel.total >= k && d >= sel.buf[0].d {
				continue
			}
			sel.offer(d, int(cellC[p]))
		}
	}
	// cellLB is the per-cell refinement of the ring bound: every
	// point of a cell (dx, dy) cell-offsets away (Chebyshev) is at
	// least sqrt(max(dx-1,0)^2+max(dy-1,0)^2)/G away, so corner
	// cells of a surviving ring become skippable up to sqrt(2)
	// earlier than the whole ring; the same 1e-9 guard covers the
	// placement rounding.
	cellLB := func(dx, dy int) float64 {
		if dx--; dx < 0 {
			dx = 0
		}
		if dy--; dy < 0 {
			dy = 0
		}
		return float64(dx*dx+dy*dy) * invG2
	}
	for _, t32 := range groups {
		t := int(t32)
		a0, a1 := s.g0[t], s.g1[t]
		sel.reset()
		if c := s.gcnt[t] - 1; c > 0 {
			sel.offer(0, c)
		}
		cx, cy := s.cellOf(t)
		for r := 0; ; r++ {
			if r >= 1 && sel.total >= k {
				lb := float64(r-1) / float64(G)
				if lb*lb*(1-1e-9) >= sel.worst() {
					break
				}
			}
			if r == 0 {
				scan(t, a0, a1, cy*G+cx)
				continue
			}
			x0, x1 := cx-r, cx+r
			y0, y1 := cy-r, cy+r
			if x0 < 0 && x1 > G-1 && y0 < 0 && y1 > G-1 {
				break // ring strictly outside: so is every later one
			}
			xl, xr := max(x0, 0), min(x1, G-1)
			if y0 >= 0 {
				for x := xl; x <= xr; x++ {
					if sel.total >= k && cellLB(abs(x-cx), r)*(1-1e-9) >= sel.buf[0].d {
						continue
					}
					scan(t, a0, a1, y0*G+x)
				}
			}
			if y1 < G {
				for x := xl; x <= xr; x++ {
					if sel.total >= k && cellLB(abs(x-cx), r)*(1-1e-9) >= sel.buf[0].d {
						continue
					}
					scan(t, a0, a1, y1*G+x)
				}
			}
			yt, yb := max(y0+1, 0), min(y1-1, G-1)
			if x0 >= 0 {
				for y := yt; y <= yb; y++ {
					if sel.total >= k && cellLB(r, abs(y-cy))*(1-1e-9) >= sel.buf[0].d {
						continue
					}
					scan(t, a0, a1, y*G+x0)
				}
			}
			if x1 < G {
				for y := yt; y <= yb; y++ {
					if sel.total >= k && cellLB(r, abs(y-cy))*(1-1e-9) >= sel.buf[0].d {
						continue
					}
					scan(t, a0, a1, y*G+x1)
				}
			}
		}
		s.gd[t] = 1 / (math.Sqrt(sel.kth()) + 2)
	}
}

// sweepFitness2 computes the SPEA-2 strength and raw fitness of a
// two-objective union in O(n log n): with two minimized objectives,
// "i dominates j" is exactly "i precedes j in the (≤,≤) product order
// and differs somewhere", so the strength S(i) = |{j : i dominates j}|
// and the raw fitness R(i) = Σ_{j dominates i} S(j) are orthogonal
// range counts — one Fenwick sweep over compressed obj1 ranks per
// quantity, replacing the former O(n²) pairwise pass. Every sum is an
// integer, so the results are bit-identical to the pairwise
// computation at any n. ord must hold 0..n-1 sorted lexicographically
// by (obj0, obj1), which makes equal-obj0 groups contiguous and exact
// duplicates adjacent.
//
// With D(i) = |{j≠i : obj(j) ≥ obj(i) componentwise}| (product-order
// successors, exact ties included) and dup(i) the count of exact
// duplicates of i, S(i) = D(i) − dup(i); duplicates share one S value,
// so R(i) = (Σ_{j ⪯ i} S(j)) − (dup(i)+1)·S(i), the sum running over
// all product-order predecessors including i and its ties.
func sweepFitness2(obj0, obj1 []float64, ord []int, s *fitScratch) {
	n := len(obj0)
	s.ys, s.rank = grow(s.ys, n), grow(s.rank, n)
	s.strength, s.dup, s.rawf = grow(s.strength, n), grow(s.dup, n), grow(s.rawf, n)
	ys, rank := s.ys, s.rank
	strength, dup, rawf := s.strength, s.dup, s.rawf
	// Compress obj1 to dense ranks 1..nr: sort a packed copy of the
	// values (no indirection, no comparator closure), dedupe in place,
	// then rank each individual by binary search.
	copy(ys, obj1[:n])
	slices.Sort(ys)
	nr := 0
	for i := 0; i < n; i++ {
		if i == 0 || ys[i] != ys[nr-1] {
			ys[nr] = ys[i]
			nr++
		}
	}
	for i := 0; i < n; i++ {
		v := obj1[i]
		lo, hi := 0, nr
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if ys[mid] < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		rank[i] = lo + 1
	}
	s.fen = grow(s.fen, nr+1)
	fen := s.fen
	clear(fen)

	// Duplicate counts: exact (obj0, obj1) ties are adjacent in ord.
	for st := 0; st < n; {
		en := st + 1
		for en < n && obj0[ord[en]] == obj0[ord[st]] && obj1[ord[en]] == obj1[ord[st]] {
			en++
		}
		for p := st; p < en; p++ {
			dup[ord[p]] = en - st - 1
		}
		st = en
	}

	// Pass 1, descending obj0 groups: after inserting a group, the tree
	// holds every j with obj0(j) ≥ obj0(i), so the suffix count at
	// rank(i) is |{j : obj(j) ≥ obj(i)}| including i itself.
	inserted := 0
	for gEnd := n; gEnd > 0; {
		gStart := gEnd - 1
		for gStart > 0 && obj0[ord[gStart-1]] == obj0[ord[gEnd-1]] {
			gStart--
		}
		for p := gStart; p < gEnd; p++ {
			for r := rank[ord[p]]; r <= nr; r += r & -r {
				fen[r]++
			}
		}
		inserted += gEnd - gStart
		for p := gStart; p < gEnd; p++ {
			i := ord[p]
			below := 0
			for r := rank[i] - 1; r > 0; r -= r & -r {
				below += fen[r]
			}
			strength[i] = inserted - below - 1 - dup[i]
		}
		gEnd = gStart
	}

	// Pass 2, ascending obj0 groups: the tree accumulates strengths, so
	// the prefix sum at rank(i) is Σ S(j) over every product-order
	// predecessor of i (ties and i itself included, corrected below).
	clear(fen)
	for gStart := 0; gStart < n; {
		gEnd := gStart + 1
		for gEnd < n && obj0[ord[gEnd]] == obj0[ord[gStart]] {
			gEnd++
		}
		for p := gStart; p < gEnd; p++ {
			i := ord[p]
			for r := rank[i]; r <= nr; r += r & -r {
				fen[r] += strength[i]
			}
		}
		for p := gStart; p < gEnd; p++ {
			i := ord[p]
			leq := 0
			for r := rank[i]; r > 0; r -= r & -r {
				leq += fen[r]
			}
			rawf[i] = leq - (dup[i]+1)*strength[i]
		}
		gStart = gEnd
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// kNearest is SPEA-2's neighbour index k = sqrt(n), at least 1.
func kNearest(n int) int {
	k := int(math.Sqrt(float64(n)))
	if k < 1 {
		k = 1
	}
	return k
}

// invRange2 returns 1/(max-min) over the values (0 for a flat range),
// matching normalizeRanges for one objective.
func invRange2(v []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if d := hi - lo; d > 0 {
		return 1 / d
	}
	return 0
}

// kSelect tracks the k smallest values of a weighted stream with a
// small max-heap: offer(d, c) submits the value d with multiplicity c,
// rejects most values with a single compare against the root once the
// heap is warm, and kth returns the k-th smallest of the expanded
// multiset — the exact value a full sort over all copies would
// produce. Weighting is what makes the duplicate-grouped density loop
// of assignFitness2 affordable: a group of m identical points is one
// offer, not m. Warm-up (total < k) is a plain append; the buffer is
// heapified once, the moment it first fills — a Floyd heapify is O(k)
// where keeping the buffer sorted would pay an insertion per early
// accept.
type kEntry struct {
	d float64
	c int
}

type kSelect struct {
	k     int
	total int // Σc over the buffer
	buf   []kEntry
}

func newKSelect(k int) *kSelect {
	return &kSelect{k: k, buf: make([]kEntry, 0, k+1)}
}

// kSelectPool recycles the heaps across generations and workers: every
// parallel fitness chunk draws one instead of allocating.
var kSelectPool = sync.Pool{New: func() any { return &kSelect{} }}

func getKSelect(k int) *kSelect {
	s := kSelectPool.Get().(*kSelect)
	s.k = k
	if cap(s.buf) < k+1 {
		s.buf = make([]kEntry, 0, k+1)
	} else {
		s.buf = s.buf[:0]
	}
	s.total = 0
	return s
}

func putKSelect(s *kSelect) { kSelectPool.Put(s) }

func (s *kSelect) reset() { s.buf = s.buf[:0]; s.total = 0 }

// worst returns the current k-th-smallest upper bound (the heap
// root); valid only once total >= k (the prune guard of the density
// loop checks that first).
func (s *kSelect) worst() float64 { return s.buf[0].d }

// offer submits c copies of the value d. Entries each carry c >= 1;
// trimming keeps the heap at the minimal entry set covering the k
// smallest copies, so the k-th smallest is always the root once
// total >= k. Until the buffer reaches k copies every value is kept,
// so warm-up is a plain append — the buffer is heapified once, the
// moment it first fills, instead of paying a sift per early accept.
func (s *kSelect) offer(d float64, c int) {
	if s.total < s.k {
		s.buf = append(s.buf, kEntry{d, c})
		if s.total += c; s.total >= s.k {
			s.heapify()
		}
		return
	}
	b := s.buf
	if d >= b[0].d {
		return
	}
	if s.total-b[0].c+c >= s.k {
		// The new entry displaces the root outright (the usual case:
		// unit multiplicities keep total pinned at k): one sift-down
		// instead of a push plus a pop.
		s.total += c - b[0].c
		b[0] = kEntry{d, c}
		siftDown(b, 0)
		s.buf = s.trim(b)
		return
	}
	// The root still covers part of the k smallest: push the new entry
	// up from the bottom; nothing becomes droppable. Order among equal
	// d never changes the k-th value.
	b = append(b, kEntry{d, c})
	i := len(b) - 1
	for i > 0 {
		p := (i - 1) / 2
		if b[p].d >= b[i].d {
			break
		}
		b[i], b[p] = b[p], b[i]
		i = p
	}
	s.total += c
	s.buf = b
}

// trim pops max entries that no longer contribute to the k smallest
// copies and returns the shrunk heap.
func (s *kSelect) trim(b []kEntry) []kEntry {
	for s.total-b[0].c >= s.k {
		s.total -= b[0].c
		n := len(b) - 1
		b[0] = b[n]
		b = b[:n]
		siftDown(b, 0)
	}
	return b
}

// heapify turns the warm-up buffer into a max-heap (Floyd, O(len))
// and trims it; it runs at most once per query, the first time total
// reaches k.
func (s *kSelect) heapify() {
	b := s.buf
	for i := len(b)/2 - 1; i >= 0; i-- {
		siftDown(b, i)
	}
	s.buf = s.trim(b)
}

func siftDown(b []kEntry, i int) {
	n := len(b)
	for {
		m := 2*i + 1
		if m >= n {
			return
		}
		if r := m + 1; r < n && b[r].d > b[m].d {
			m = r
		}
		if b[i].d >= b[m].d {
			return
		}
		b[i], b[m] = b[m], b[i]
		i = m
	}
}

// kth returns the k-th smallest offered copy; with fewer than k copies
// it returns the largest seen (0 when empty), matching the clamped
// quickselect the implementation previously used. An underfull buffer
// is still in arrival order, so the maximum is found by scan.
func (s *kSelect) kth() float64 {
	if len(s.buf) == 0 {
		return 0
	}
	if s.total < s.k {
		m := s.buf[0].d
		for _, e := range s.buf[1:] {
			if e.d > m {
				m = e.d
			}
		}
		return m
	}
	return s.buf[0].d
}

// selScratch is the reusable scratch of environmental selection: the
// archive under construction, the dominated spill, and truncation's
// liveness/nearest-neighbour bookkeeping. The returned archive aliases
// the next buffer; the engine guarantees the previous archive is dead
// (copied into the union) before the next selection runs.
type selScratch struct {
	next      []Individual
	dominated []Individual
	alive     []bool
	protected []bool
	nn        []int
	nnD       []float64
	// Two-objective selection (select2): union indices of the
	// nondominated and dominated individuals, the dominated raw
	// fitnesses, and the chain truncation's sorted chain, links and
	// victim heap.
	nd, dom    []int32
	rs         []int
	chain      []int32
	prev, succ []int32
	heap       []chainEntry
}

// environmentalSelection builds the next archive of the given capacity
// from a union whose every fitness is assigned. A nil scratch allocates
// fresh buffers.
func environmentalSelection(union []Individual, capacity, m int, s *selScratch) []Individual {
	if s == nil {
		s = &selScratch{}
	}
	next := s.next[:0]
	dominated := s.dominated[:0]
	for i := range union {
		if union[i].fitness < 1 {
			next = append(next, union[i])
		} else {
			dominated = append(dominated, union[i])
		}
	}
	switch {
	case len(next) > capacity:
		next = truncate(next, capacity, m, s)
	case len(next) < capacity:
		slices.SortFunc(dominated, func(a, b Individual) int {
			switch {
			case a.fitness < b.fitness:
				return -1
			case a.fitness > b.fitness:
				return 1
			}
			return 0
		})
		need := capacity - len(next)
		if need > len(dominated) {
			need = len(dominated)
		}
		next = append(next, dominated[:need]...)
	}
	s.next = next
	clear(dominated) // drop genome references until the next generation
	s.dominated = dominated[:0]
	return next
}

// truncate iteratively removes the individual with the smallest
// nearest-neighbour distance in normalized objective space until the
// set fits the capacity, then compacts the survivors in place. Ties go
// to the lowest index, and the per-objective minima are never removed.
// (SPEA-2 breaks nearest-neighbour ties by the next distances; with
// floating-point objective distances exact ties are rare and
// first-neighbour truncation preserves the boundary points just as
// well, at a fraction of the cost.) Each removal rescans the set, so
// this is O(n²) per victim in the worst case; it serves the K-objective
// runs and is the oracle of the two-objective chain walk (truncate2).
func truncate(set []Individual, capacity, m int, s *selScratch) []Individual {
	_, invRange := normalizeRanges(set, m)
	n := len(set)
	s.alive = grow(s.alive, n)
	alive := s.alive
	for i := range alive {
		alive[i] = true
	}
	// Protect the per-objective extremes, like NSGA-II's infinite
	// boundary crowding: losing a corner of the front is never worth a
	// density gain.
	s.protected = grow(s.protected, n)
	protected := s.protected
	clear(protected)
	for k := 0; k < m && capacity >= m; k++ {
		best := 0
		for i := 1; i < n; i++ {
			if set[i].Obj[k] < set[best].Obj[k] {
				best = i
			}
		}
		protected[best] = true
	}
	s.nn, s.nnD = grow(s.nn, n), grow(s.nnD, n)
	nn := s.nn   // index of current nearest neighbour
	nnD := s.nnD // distance to it
	recompute := func(i int) {
		bi, bd := -1, math.Inf(1)
		for j := 0; j < n; j++ {
			if j == i || !alive[j] {
				continue
			}
			if d := objDist2(set[i].Obj, set[j].Obj, invRange); d < bd {
				bi, bd = j, d
			}
		}
		nn[i], nnD[i] = bi, bd
	}
	for i := 0; i < n; i++ {
		recompute(i)
	}
	remaining := n
	for remaining > capacity {
		victim := -1
		best := math.Inf(1)
		for i := 0; i < n; i++ {
			if alive[i] && !protected[i] && nnD[i] < best {
				best = nnD[i]
				victim = i
			}
		}
		if victim < 0 {
			break // only protected extremes left
		}
		alive[victim] = false
		remaining--
		for i := 0; i < n; i++ {
			if alive[i] && nn[i] == victim {
				recompute(i)
			}
		}
	}
	out := set[:0]
	for i := 0; i < n; i++ {
		if alive[i] {
			out = append(out, set[i])
		}
	}
	return out
}

// select2 is fitness assignment plus environmental selection for two
// objectives, computing only the fitness values selection reads. Its
// archive — order, members, fitness and density — is identical to
// assignFitness followed by environmentalSelection; the fitness of a
// non-survivor is left undefined.
//
// Survivors are decided from the raw fitness R alone: 0 ≤ D ≤ 1/2, so
// F < 1 exactly when R = 0, and the k-NN densities are queried only
// for the groups whose fitness is read:
//   - overfull (more nondominated than capacity): truncation reads only
//     objectives, so it runs first and only the survivors are queried;
//   - exactly full: the nondominated are queried;
//   - underfull: the nondominated and the dominated with R ≤ R_cut, the
//     raw fitness of the need-th best dominated individual, are queried
//     as one batch. The fill sort orders by F, and F_a < F_b whenever
//     R_a < R_b; when it compares two individuals of equal R it reads
//     their densities, queried on demand and memoized per group. The
//     unstable sort therefore sees exactly the comparison results of
//     the full assignment and leaves ties in the same order.
func select2(union []Individual, capacity, workers int, fs *fitScratch, ss *selScratch) []Individual {
	n := len(union)
	fs.prepare2(union)
	rawf, gid := fs.rawf, fs.gid
	nd, dom := grow(ss.nd, n)[:0], grow(ss.dom, n)[:0]
	for i := 0; i < n; i++ {
		if rawf[i] == 0 {
			nd = append(nd, int32(i))
		} else {
			dom = append(dom, int32(i))
		}
	}
	surv := nd
	need := 0
	switch {
	case len(nd) > capacity:
		// ord lists the nondominated along their chain.
		chain := grow(ss.chain, len(nd))[:0]
		for _, i := range fs.ord {
			if rawf[i] == 0 {
				chain = append(chain, int32(i))
			}
		}
		ss.chain = chain
		surv = truncate2(fs.obj0, fs.obj1, nd, chain, capacity, ss)
		fs.enqueue(surv)
	case len(nd) == capacity:
		fs.enqueue(nd)
	default:
		fs.enqueue(nd)
		need = min(capacity-len(nd), len(dom))
		if need > 0 {
			rs := grow(ss.rs, len(dom))
			for p, i := range dom {
				rs[p] = rawf[i]
			}
			slices.Sort(rs)
			rcut := rs[need-1]
			ss.rs = rs
			for p, i := range dom {
				if rawf[i] <= rcut {
					fs.enqueue(dom[p : p+1])
				}
			}
		}
	}
	fs.queryBatch(workers)
	if need > 0 {
		sel := getKSelect(fs.k)
		fitness := func(i int32) float64 {
			t := gid[i]
			if fs.gd[t] < 0 {
				fs.queryGroups([]int32{t}, sel)
			}
			return float64(rawf[i]) + fs.gd[t]
		}
		slices.SortFunc(dom, func(a, b int32) int {
			if ra, rb := rawf[a], rawf[b]; ra != rb {
				if ra < rb {
					return -1
				}
				return 1
			}
			fa, fb := fitness(a), fitness(b)
			switch {
			case fa < fb:
				return -1
			case fa > fb:
				return 1
			}
			return 0
		})
		putKSelect(sel)
		surv = append(nd, dom[:need]...)
	}
	next := ss.next[:0]
	for _, i := range surv {
		in := union[i]
		in.density = fs.gd[gid[i]]
		in.fitness = float64(rawf[i]) + in.density
		next = append(next, in)
	}
	ss.next, ss.nd, ss.dom = next, surv[:0], dom[:0]
	return next
}

// chainEntry is a truncation candidate: a chain position's
// nearest-neighbour distance, keyed for victim order by (d, u), u the
// union index.
type chainEntry struct {
	d    float64
	c, u int32
}

func (a chainEntry) less(b chainEntry) bool {
	return a.d < b.d || (a.d == b.d && a.u < b.u)
}

// truncate2 is truncate for a two-objective nondominated set, with the
// same victim sequence in O(n log n). set holds the union indices of
// the set in union order (truncate's index order), chain the same
// indices sorted by (obj0, obj1); obj0/obj1 are union-indexed. It
// returns the survivors in union order, compacted into set.
//
// Along the chain obj0 ascends and obj1 descends (equal obj0 means an
// exact duplicate in a nondominated set), so a point's nearest alive
// neighbour is always its alive predecessor or successor — and bit for
// bit, because correctly rounded subtraction, scaling, squaring and
// addition are all monotone: a point further along the chain never has
// a smaller computed distance. A doubly linked list tracks the alive
// chain; victims come from an (nnD, index) min-heap with lazy deletion.
// Removing a point only relinks its two neighbours, and their nnD can
// only grow, so a stale heap entry is recognized by a distance below
// the current one.
func truncate2(obj0, obj1 []float64, set, chain []int32, capacity int, s *selScratch) []int32 {
	q := len(set)
	lo0, hi0 := math.Inf(1), math.Inf(-1)
	lo1, hi1 := math.Inf(1), math.Inf(-1)
	for _, u := range set {
		lo0, hi0 = min(lo0, obj0[u]), max(hi0, obj0[u])
		lo1, hi1 = min(lo1, obj1[u]), max(hi1, obj1[u])
	}
	var iv0, iv1 float64
	if d := hi0 - lo0; d > 0 {
		iv0 = 1 / d
	}
	if d := hi1 - lo1; d > 0 {
		iv1 = 1 / d
	}
	// The per-objective extremes are protected: the lowest union index
	// of each minimum, as truncate picks them.
	prot0, prot1 := int32(-1), int32(-1)
	if capacity >= 2 {
		prot0, prot1 = set[0], set[0]
		for _, u := range set[1:] {
			if obj0[u] < obj0[prot0] {
				prot0 = u
			}
			if obj1[u] < obj1[prot1] {
				prot1 = u
			}
		}
	}
	s.alive = grow(s.alive, len(obj0))
	alive := s.alive
	for _, u := range set {
		alive[u] = true
	}
	s.prev, s.succ, s.nnD = grow(s.prev, q), grow(s.succ, q), grow(s.nnD, q)
	prev, succ, nnD := s.prev, s.succ, s.nnD
	// nearest is the distance from chain position c to its nearer alive
	// chain neighbour (+Inf without one), in objDist2's arithmetic.
	nearest := func(c int32) float64 {
		a0, a1 := obj0[chain[c]], obj1[chain[c]]
		bd := math.Inf(1)
		for _, j := range [2]int32{prev[c], succ[c]} {
			if j < 0 || int(j) >= q {
				continue
			}
			x := (a0 - obj0[chain[j]]) * iv0
			y := (a1 - obj1[chain[j]]) * iv1
			if d := x*x + y*y; d < bd {
				bd = d
			}
		}
		return bd
	}
	h := s.heap[:0]
	for c := range q {
		prev[c], succ[c] = int32(c-1), int32(c+1)
		nnD[c] = nearest(int32(c))
		if u := chain[c]; u != prot0 && u != prot1 {
			h = append(h, chainEntry{nnD[c], int32(c), u})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		chainDown(h, i)
	}
	for remaining := q; remaining > capacity && len(h) > 0; {
		v := h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		chainDown(h, 0)
		if !alive[v.u] || v.d != nnD[v.c] {
			continue // stale
		}
		if math.IsInf(v.d, 1) {
			break // no finite candidate left, as in truncate
		}
		alive[v.u] = false
		remaining--
		p, x := prev[v.c], succ[v.c]
		if p >= 0 {
			succ[p] = x
		}
		if int(x) < q {
			prev[x] = p
		}
		for _, c := range [2]int32{p, x} {
			if c < 0 || int(c) >= q {
				continue
			}
			d := nearest(c)
			if d == nnD[c] {
				continue
			}
			nnD[c] = d
			if u := chain[c]; u != prot0 && u != prot1 {
				h = append(h, chainEntry{d, c, u})
				chainUp(h, len(h)-1)
			}
		}
	}
	s.heap = h[:0]
	out := set[:0]
	for _, u := range set {
		if alive[u] {
			out = append(out, u)
		}
	}
	return out
}

func chainUp(h []chainEntry, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].less(h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func chainDown(h []chainEntry, i int) {
	n := len(h)
	for {
		m := 2*i + 1
		if m >= n {
			return
		}
		if r := m + 1; r < n && h[r].less(h[m]) {
			m = r
		}
		if !h[m].less(h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
