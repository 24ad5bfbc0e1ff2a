package lagraph

import (
	"fmt"

	"graphstudy/internal/fuse"
	"graphstudy/internal/grb"
	"graphstudy/internal/trace"
)

// PageRankOptions configures the pagerank runs; the study uses damping 0.85
// and exactly 10 iterations.
type PageRankOptions struct {
	Damping    float64
	Iterations int
}

// DefaultPageRankOptions returns the study's settings.
func DefaultPageRankOptions() PageRankOptions {
	return PageRankOptions{Damping: 0.85, Iterations: 10}
}

// PageRank is the topology-driven LAGraph pagerank of Table II ("gb").
// Following the study's description, it stores the per-edge pagerank
// contributions in a materialized matrix each iteration: T = D * A where
// D = Diag(r ./ outdeg) (exercising GaloisBLAS's diagonal SpGEMM fast
// path), then reduces T's columns into the importance vector. The edge-data
// materialization is what the gb-res variant of Figure 3a avoids.
// A must hold 1.0 per edge; results match verify.PageRank.
func PageRank(ctx *grb.Context, A *grb.Matrix[float64], opt PageRankOptions) (*grb.Vector[float64], error) {
	n := A.NRows()
	if A.NCols() != n {
		return nil, fmt.Errorf("lagraph: PageRank needs a square matrix, got %dx%d", n, A.NCols())
	}
	if n == 0 {
		return grb.NewVector[float64](0, grb.Dense), nil
	}
	d := opt.Damping
	init := trace.Begin(trace.CatRound, "lagraph.pr.init")
	A.EnsureCSC() // the dense-vector vxm pulls through columns

	// outdeg and its reciprocal (0 keeps dangling vertices inert).
	outdeg := grb.ReduceRows(ctx, grb.PlusMonoid[float64](), A)
	invdeg := grb.NewVector[float64](n, grb.Dense)
	if err := grb.AssignConstant(ctx, invdeg, nil, nil, 0, grb.Desc{}); err != nil {
		init.End()
		return nil, err
	}
	if err := grb.Apply(ctx, invdeg, nil, nil, func(x float64) float64 { return 1 / x }, outdeg, grb.Desc{}); err != nil {
		init.End()
		return nil, err
	}
	danglingMask := grb.StructMask(outdeg).Comp()

	r := grb.NewVector[float64](n, grb.Dense)
	if err := grb.AssignConstant(ctx, r, nil, nil, 1/float64(n), grb.Desc{}); err != nil {
		init.End()
		return nil, err
	}

	tmp := grb.NewVector[float64](n, grb.Dense)
	imp := grb.NewVector[float64](n, grb.Dense)
	ones := grb.NewVector[float64](n, grb.Dense)
	if err := grb.AssignConstant(ctx, ones, nil, nil, 1, grb.Desc{}); err != nil {
		init.End()
		return nil, err
	}
	init.End()
	for it := 0; it < opt.Iterations; it++ {
		if ctx.Stopped() {
			return nil, ErrTimeout
		}
		sp := trace.Begin(trace.CatRound, "lagraph.pr.round")
		sp.Round = it + 1
		err := func() error {
			// Dangling mass: sum of r over zero-out-degree vertices.
			dangling := grb.NewVector[float64](n, grb.Sorted)
			if err := grb.SelectVector(ctx, dangling, danglingMask, func(float64, int, int) bool { return true }, r, grb.Desc{Replace: true}); err != nil {
				return err
			}
			dsum := grb.ReduceVector(ctx, grb.PlusMonoid[float64](), dangling)

			// tmp = r ./ outdeg.
			if err := grb.EWiseMult(ctx, tmp, nil, nil, func(a, b float64) float64 { return a * b }, r, invdeg, grb.Desc{Replace: true}); err != nil {
				return err
			}
			// T = Diag(tmp) * A materializes the contribution of every edge
			// (the study: "gb uses edge data to store the pagerank
			// contributions"). The diagonal fast path makes this a row scaling.
			D := grb.Diag(tmp)
			T, err := grb.MxM(ctx, nil, grb.PlusTimes[float64](), D, A)
			if err != nil {
				return err
			}
			// imp(j) = sum_i T(i,j): a column reduction via ones' * T.
			if err := grb.VxM(ctx, imp, nil, nil, grb.PlusTimes[float64](), ones, T, grb.Desc{Replace: true}); err != nil {
				return err
			}
			// r = (1-d)/n + d*dangling/n + d*imp.
			base := (1-d)/float64(n) + d*dsum/float64(n)
			if err := grb.AssignConstant(ctx, r, nil, nil, base, grb.Desc{}); err != nil {
				return err
			}
			return grb.Apply(ctx, r, nil, func(a, b float64) float64 { return a + b },
				func(x float64) float64 { return d * x }, imp, grb.Desc{})
		}()
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

// PageRankResidual is the study's "gb-res" variant (Figure 3a): a residual
// formulation matching the computation Lonestar's residual pagerank does,
// written in the matrix API. The two residual operations per iteration
// (fold the residual into the rank, and divide the residual by out-degree)
// are separate API calls, so the residual vector is traversed twice — the
// fusion opportunity the graph API exploits and this API cannot express.
//
// It intentionally performs no dangling redistribution, exactly like the
// Lonestar implementation it mirrors; compare its output against
// lonestar.PageRankResidual or verify.PageRankResidual, not verify.PageRank.
func PageRankResidual(ctx *grb.Context, A *grb.Matrix[float64], opt PageRankOptions) (*grb.Vector[float64], error) {
	return residualPageRank(ctx, A, opt, "pr-res", (*fuse.Program).RunEager, nil)
}

// FusedPageRank is PageRankResidual with each iteration planned by
// internal/fuse: the planner fuses the first pair of the round body (the
// two passes over the residual the study calls out as the API gap) and the
// second (the product re-scaled in place). Results are bit-identical to
// PageRankResidual.
func FusedPageRank(ctx *grb.Context, A *grb.Matrix[float64], opt PageRankOptions) (*grb.Vector[float64], error) {
	return residualPageRank(ctx, A, opt, "pr-dag", (*fuse.Program).Run, nil)
}

// PageRankResidualTraj is PageRankResidual with the residual trajectory
// captured: traj[k] is the residual at the start of iteration k (so
// pr = traj[0] + ... + traj[T-1], folded in iteration order). The returned
// pr is bit-identical to PageRankResidual's; the trajectory is what
// IncrementalPageRank patches on the next snapshot.
func PageRankResidualTraj(ctx *grb.Context, A *grb.Matrix[float64], opt PageRankOptions) (*grb.Vector[float64], []*grb.Vector[float64], error) {
	traj := make([]*grb.Vector[float64], 0, opt.Iterations)
	pr, err := residualPageRank(ctx, A, opt, "pr-res", (*fuse.Program).RunEager, &traj)
	if err != nil {
		return nil, nil, err
	}
	return pr, traj, nil
}

// residualPageRank is the one residual pagerank round loop; family names
// its trace spans, and a non-nil traj receives a copy of the residual at
// the start of every iteration.
func residualPageRank(ctx *grb.Context, A *grb.Matrix[float64], opt PageRankOptions, family string, run func(*fuse.Program) error, traj *[]*grb.Vector[float64]) (*grb.Vector[float64], error) {
	n := A.NRows()
	if A.NCols() != n {
		return nil, fmt.Errorf("lagraph: PageRankResidual needs a square matrix, got %dx%d", n, A.NCols())
	}
	if n == 0 {
		return grb.NewVector[float64](0, grb.Dense), nil
	}
	d := opt.Damping
	init := trace.Begin(trace.CatRound, "lagraph."+family+".init")
	invdeg, pr, err := residualInit(ctx, A)
	if err != nil {
		init.End()
		return nil, err
	}
	res, err := filled(ctx, n, (1-d)/float64(n))
	if err != nil {
		init.End()
		return nil, err
	}
	contrib := grb.NewVector[float64](n, grb.Dense)
	init.End()

	roundOp := "lagraph." + family + ".round"
	plus := func(a, b float64) float64 { return a + b }
	times := func(a, b float64) float64 { return a * b }
	scale := func(x float64) float64 { return d * x }
	for it := 0; it < opt.Iterations; it++ {
		if ctx.Stopped() {
			return nil, ErrTimeout
		}
		sp := trace.Begin(trace.CatRound, roundOp)
		sp.Round = it + 1
		if traj != nil {
			*traj = append(*traj, res.Dup())
		}
		p := fuse.NewProgram(ctx)
		// Pass 1 over res: pr += res. Pass 2 over res: contrib = res ./ outdeg.
		fuse.EWiseAdd(p, pr, fuse.NoMask(), nil, plus, pr, res, grb.Desc{})
		fuse.EWiseMult(p, contrib, fuse.NoMask(), nil, times, res, invdeg, grb.Desc{Replace: true})
		// res = d * (A' contrib).
		fuse.VxM(p, res, fuse.NoMask(), nil, grb.PlusTimes[float64](), contrib, A, grb.Desc{Replace: true})
		fuse.Apply(p, res, fuse.NoMask(), nil, scale, res, grb.Desc{Replace: true})
		err := run(p)
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	return pr, nil
}

// residualInit is the set-up every residual pagerank shares (gb-res,
// fused, adaptive, and incremental): the CSC mirror the dense-vector vxm
// pulls through, the reciprocal out-degree (0 keeps dangling vertices
// inert), and the zeroed rank.
func residualInit(ctx *grb.Context, A *grb.Matrix[float64]) (invdeg, pr *grb.Vector[float64], err error) {
	A.EnsureCSC()
	outdeg := grb.ReduceRows(ctx, grb.PlusMonoid[float64](), A)
	if invdeg, err = filled(ctx, A.NRows(), 0.0); err != nil {
		return nil, nil, err
	}
	if err = grb.Apply(ctx, invdeg, nil, nil, func(x float64) float64 { return 1 / x }, outdeg, grb.Desc{}); err != nil {
		return nil, nil, err
	}
	if pr, err = filled(ctx, A.NRows(), 0.0); err != nil {
		return nil, nil, err
	}
	return invdeg, pr, nil
}

// Ranks extracts a dense rank slice for verification (implicit entries 0).
func Ranks(r *grb.Vector[float64]) []float64 {
	sp := trace.Begin(trace.CatRound, "lagraph.extract")
	defer sp.End()
	out := make([]float64, r.Size())
	r.ForEach(func(i int, v float64) { out[i] = v })
	return out
}
