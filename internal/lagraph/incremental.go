package lagraph

import (
	"fmt"
	"sort"

	"graphstudy/internal/graph"
	"graphstudy/internal/grb"
	"graphstudy/internal/trace"
)

// Incremental variants: algorithms that answer for the current snapshot of
// a mutating graph by reusing the previous snapshot's result plus the net
// edge delta, instead of running from scratch. Every variant carries the
// same correctness contract, enforced by internal/verify's snapshot
// differential suite: the answer (and its digest) must be exactly what the
// from-scratch run on the same snapshot produces. The reuse decisions are
// auditable from the trace via CatDelta spans.
//
// All three handle *additions* incrementally; deletions are handled one
// layer up (internal/core) by falling back to the from-scratch path, since
// a deletion can invalidate arbitrary parts of a prior result.

// Inf32 marks an unreachable vertex in hop-count space.
const Inf32 = ^uint32(0)

// IncrementalBFS updates hop counts after edge additions: every added edge
// (u,v) with level(u)+1 < level(v) seeds an improved level for v, and the
// improvements relax outward through the *new* adjacency under the
// min-plus semiring until no vertex improves. Additions only shorten hop
// counts, so the old levels are valid upper bounds and the relaxation
// converges to the exact BFS levels of the new snapshot — identical to a
// from-scratch run, whose digest is determined by the hop counts alone.
//
// A must be the current snapshot's adjacency as any uint32 matrix — the
// relaxation runs under the (min, hop) semiring, which ignores matrix
// values, so the prepared weight matrix serves without a cast. oldLevels
// are the previous snapshot's hop counts (Inf32 for unreached) for the
// same source.
func IncrementalBFS(ctx *grb.Context, A *grb.Matrix[uint32], src int, oldLevels []uint32, adds []graph.Edge) ([]uint32, int, error) {
	n := A.NRows()
	if A.NCols() != n {
		return nil, 0, fmt.Errorf("lagraph: IncrementalBFS needs a square matrix, got %dx%d", n, A.NCols())
	}
	if len(oldLevels) != n {
		return nil, 0, fmt.Errorf("lagraph: IncrementalBFS levels size %d, matrix %d", len(oldLevels), n)
	}
	if src < 0 || src >= n || oldLevels[src] != 0 {
		return nil, 0, fmt.Errorf("lagraph: IncrementalBFS source %d does not match prior levels", src)
	}

	// Seed frontier: destinations an added edge improves right now.
	seed := trace.Begin(trace.CatDelta, "delta.bfs.seed")
	seed.NNZIn = int64(len(adds))
	var idx []int
	var vals []uint32
	for _, e := range adds {
		lu := oldLevels[e.Src]
		if lu == Inf32 {
			continue // an unreached source cannot improve anything yet;
			// if it becomes reached, the relaxation below finds its edges in A
		}
		if int(e.Dst) < n && lu+1 < oldLevels[e.Dst] {
			idx = append(idx, int(e.Dst))
			vals = append(vals, lu+1)
		}
	}
	frontier := grb.DeltaFrontier(n, idx, vals)
	seed.NNZOut = int64(frontier.NVals())
	seed.End()

	out := make([]uint32, n)
	copy(out, oldLevels)
	if frontier.NVals() == 0 {
		return out, 0, nil
	}

	// dist starts as the old levels, densified; Inf32 entries participate so
	// min-folds see them as "unreached".
	dist := grb.NewVector[uint32](n, grb.Dense)
	for i, l := range oldLevels {
		dist.SetElement(i, l)
	}
	if err := grb.EWiseAdd(ctx, dist, nil, nil, minU32, dist, frontier, grb.Desc{}); err != nil {
		return nil, 0, err
	}

	rounds := 0
	for frontier.NVals() > 0 {
		if ctx.Stopped() {
			return nil, rounds, ErrTimeout
		}
		rounds++
		sp := trace.Begin(trace.CatRound, "lagraph.bfs-incr.round")
		sp.Round = rounds
		sp.NNZIn = int64(frontier.NVals())
		err := func() error {
			// cand(w) = min over frontier u of dist(u)+1, via (min, hop).
			cand := grb.NewVector[uint32](n, grb.Sorted)
			if err := grb.VxM(ctx, cand, nil, nil, grb.MinHop[uint32](), frontier, A, grb.Desc{Replace: true}); err != nil {
				return err
			}
			// Keep strict improvements only; dist is read-only here.
			improved := grb.NewVector[uint32](n, grb.Sorted)
			if err := grb.SelectVector(ctx, improved, nil, func(v uint32, i, _ int) bool {
				cur, ok := dist.ExtractElement(i)
				return !ok || v < cur
			}, cand, grb.Desc{Replace: true}); err != nil {
				return err
			}
			if err := grb.EWiseAdd(ctx, dist, nil, nil, minU32, dist, improved, grb.Desc{}); err != nil {
				return err
			}
			frontier = improved
			return nil
		}()
		sp.NNZOut = int64(frontier.NVals())
		sp.End()
		if err != nil {
			return nil, rounds, err
		}
	}
	dist.ForEach(func(i int, v uint32) { out[i] = v })
	return out, rounds, nil
}

// IncrementalCC updates a component partition after edge additions.
// Additions only merge components, so the update is a serial union-find
// over the *old labels* — work proportional to the delta, not the graph:
// each added edge unions its endpoints' old components, and the relabel
// pass rewrites every vertex to its merged root. The result is the exact
// partition of the new snapshot (old labels were correct, added edges are
// the only new connectivity), and the partition is all the component
// digest depends on.
func IncrementalCC(oldLabels []uint32, adds []graph.Edge) []uint32 {
	sp := trace.Begin(trace.CatDelta, "delta.cc.touched")
	defer sp.End()
	sp.NNZIn = int64(len(adds))

	parent := map[uint32]uint32{}
	var find func(x uint32) uint32
	find = func(x uint32) uint32 {
		p, ok := parent[x]
		if !ok || p == x {
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	merged := int64(0)
	n := uint32(len(oldLabels))
	for _, e := range adds {
		if e.Src >= n || e.Dst >= n {
			continue // node growth forces the fallback path upstream
		}
		// Union by min root keeps labels canonical-leaning, though the
		// digest canonicalizes regardless.
		ru, rv := find(oldLabels[e.Src]), find(oldLabels[e.Dst])
		if ru == rv {
			continue
		}
		if rv < ru {
			ru, rv = rv, ru
		}
		parent[rv] = ru
		merged++
	}
	sp.NNZOut = merged

	out := make([]uint32, len(oldLabels))
	for i, l := range oldLabels {
		out[i] = find(l)
	}
	return out
}

// IncrementalPageRank recomputes the delta-residual pagerank after edge
// additions, reusing the previous snapshot's residual trajectory. The
// residual recurrence res_{k+1} = d * (A' (res_k ./ outdeg)) localizes a
// mutation: res_{k+1}(j) differs from the stored trajectory only if column
// j changed, or some in-neighbor i of j had a changed residual or a changed
// out-degree. The dirty set therefore starts at the mutated endpoints and
// grows by one out-neighborhood hop per iteration; each iteration's VxM is
// recomputed only under a mask over that set, with the kernel pinned to the
// unmasked choice (grb.VxMKernelHint) so every recomputed entry is
// bit-identical to the from-scratch value, and clean entries are patched in
// from the stored trajectory. The rank fold then reproduces the
// from-scratch pr bit for bit.
//
// oldTraj must hold opt.Iterations residual vectors of dimension n from the
// previous snapshot (callers fall back to scratch otherwise). The returned
// trajectory replaces it for the next snapshot.
func IncrementalPageRank(ctx *grb.Context, A *grb.Matrix[float64], opt PageRankOptions, oldTraj []*grb.Vector[float64], adds []graph.Edge) (*grb.Vector[float64], []*grb.Vector[float64], error) {
	n := A.NRows()
	if A.NCols() != n {
		return nil, nil, fmt.Errorf("lagraph: IncrementalPageRank needs a square matrix, got %dx%d", n, A.NCols())
	}
	if len(oldTraj) != opt.Iterations {
		return nil, nil, fmt.Errorf("lagraph: IncrementalPageRank trajectory has %d iterations, want %d", len(oldTraj), opt.Iterations)
	}
	for _, r := range oldTraj {
		if r.Size() != n {
			return nil, nil, fmt.Errorf("lagraph: IncrementalPageRank trajectory dimension %d, matrix %d", r.Size(), n)
		}
	}
	d := opt.Damping
	init := trace.Begin(trace.CatRound, "lagraph.pr-incr.init")
	invdeg, pr, err := residualInit(ctx, A)
	if err != nil {
		init.End()
		return nil, nil, err
	}

	// Dirty closure state. changedCols: columns whose structure changed.
	// degDirty: vertices whose out-degree (hence contribution scale)
	// changed. dirty: vertices whose residual differs from the trajectory.
	inSet := make([]bool, n)
	var dirty []int
	degDirty := make([]bool, n)
	var degSeeds []int
	for _, e := range adds {
		if int(e.Src) >= n || int(e.Dst) >= n {
			init.End()
			return nil, nil, fmt.Errorf("lagraph: IncrementalPageRank add (%d,%d) outside matrix of %d", e.Src, e.Dst, n)
		}
		if !degDirty[e.Src] {
			degDirty[e.Src] = true
			degSeeds = append(degSeeds, int(e.Src))
		}
		if !inSet[e.Dst] {
			inSet[e.Dst] = true
			dirty = append(dirty, int(e.Dst))
		}
	}
	init.End()

	traj := make([]*grb.Vector[float64], 0, opt.Iterations)
	plus := func(a, b float64) float64 { return a + b }
	contrib := grb.NewVector[float64](n, grb.Dense)
	// res_0 is a constant: identical to the stored trajectory head.
	res := oldTraj[0]
	full := false // set once the dirty set covers too much to be worth masking
	// frontier: vertices whose dirtiness is new this hop (their
	// out-neighbors join the set next); degree-dirty vertices spread every
	// hop until their neighbors are all in.
	frontier := append([]int(nil), dirty...)
	frontier = append(frontier, degSeeds...)
	for it := 0; it < opt.Iterations; it++ {
		if ctx.Stopped() {
			return nil, nil, ErrTimeout
		}
		sp := trace.Begin(trace.CatRound, "lagraph.pr-incr.round")
		sp.Round = it + 1
		err := func() error {
			if err := grb.EWiseAdd(ctx, pr, nil, nil, plus, pr, res, grb.Desc{}); err != nil {
				return err
			}
			traj = append(traj, res)
			if it == opt.Iterations-1 {
				return nil // the final residual is never folded into pr
			}
			if !full {
				// Grow the dirty set one out-neighborhood hop. Once the set
				// covers half the graph the mask stops paying for itself and
				// every later iteration recomputes in full, so growth (an
				// O(edges-of-frontier) walk) stops with it.
				grow := trace.Begin(trace.CatDelta, "delta.pr.dirty")
				grow.Round = it + 1
				var next []int
				for _, u := range frontier {
					cols, _ := A.Row(u)
					for _, j := range cols {
						if !inSet[j] {
							inSet[j] = true
							dirty = append(dirty, int(j))
							next = append(next, int(j))
						}
					}
				}
				frontier = next
				grow.NNZIn = int64(len(adds))
				grow.NNZOut = int64(len(dirty))
				grow.End()
				if len(dirty) > n/2 {
					full = true
				}
			}
			if err := grb.EWiseMult(ctx, contrib, nil, nil, func(a, b float64) float64 { return a * b }, res, invdeg, grb.Desc{Replace: true}); err != nil {
				return err
			}
			if full {
				// The mask would cover most of the matrix: recompute the whole
				// residual, exactly as scratch does.
				nres := grb.NewVector[float64](n, grb.Dense)
				if err := grb.VxM(ctx, nres, nil, nil, grb.PlusTimes[float64](), contrib, A, grb.Desc{Replace: true}); err != nil {
					return err
				}
				if err := grb.Apply(ctx, nres, nil, nil, func(x float64) float64 { return d * x }, nres, grb.Desc{Replace: true}); err != nil {
					return err
				}
				res = nres
				return nil
			}
			// Recompute dirty positions only, pinned to the unmasked kernel
			// so each value is bit-identical to the from-scratch one. The
			// mask is built in index order: Sorted SetElement is an O(1)
			// append then, an O(set) memmove otherwise.
			ordered := append([]int(nil), dirty...)
			sort.Ints(ordered)
			maskVec := grb.NewVector[bool](n, grb.Sorted)
			for _, j := range ordered {
				maskVec.SetElement(j, true)
			}
			t := grb.NewVector[float64](n, grb.Sorted)
			desc := grb.Desc{Replace: true, Force: grb.VxMKernelHint(contrib, A)}
			if err := grb.VxM(ctx, t, grb.StructMask(maskVec), nil, grb.PlusTimes[float64](), contrib, A, desc); err != nil {
				return err
			}
			if err := grb.Apply(ctx, t, nil, nil, func(x float64) float64 { return d * x }, t, grb.Desc{Replace: true}); err != nil {
				return err
			}
			// Patch: stored trajectory everywhere clean, recomputed values at
			// the dirty positions that produced entries. With additions only,
			// no stored entry can disappear, so overwrite is a full merge.
			nres := oldTraj[it+1].Dup()
			if err := grb.Apply(ctx, nres, grb.StructMask(t), nil, func(x float64) float64 { return x }, t, grb.Desc{}); err != nil {
				return err
			}
			res = nres
			return nil
		}()
		sp.End()
		if err != nil {
			return nil, nil, err
		}
	}
	return pr, traj, nil
}
