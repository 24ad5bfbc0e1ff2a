package lagraph

import (
	"fmt"

	"graphstudy/internal/adapt"
	"graphstudy/internal/grb"
	"graphstudy/internal/trace"
)

// This file holds the adaptive ports of the round-based matrix kernels
// (core.VAdaptive): the same algorithms as bfs.go / pr.go / sssp.go /
// cc.go, with three changes wired through every round loop —
//
//  1. the push/pull direction is decided per round by an adapt.Engine
//     from the measured frontier density and forced onto the kernel
//     (Desc.Force), instead of being left to the kernel's heuristic;
//  2. the frontier vector is promoted/demoted across representations
//     (List → Sorted → Bitmap → Dense) as its density crosses the
//     engine's bands;
//  3. per-round scratch vectors come from an adapt.Arena instead of
//     make, so steady-state rounds allocate nothing.
//
// Decisions must be invisible in the results: internal/verify's
// metamorphic suite pins every (direction, rep) cell via
// Config.ForceDirection/ForceRep and demands digests identical to the
// free-running engine across the whole corpus.

// AdaptiveBFS is LAGraph's direction-optimized BFS: rounds with a sparse
// frontier push (masked vxm over the frontier's rows); rounds with a dense
// frontier pull (masked vxm driven by the unvisited positions through the
// CSC mirror). The study's related-work section notes GraphBLAST leans on
// exactly this optimization; here the adapt engine decides the direction
// from the frontier density each round, and forcing it (Config.Force)
// yields the pure-push or pure-pull foils. Same contract as BFS: returns
// the level+1 vector, the round count, and how many rounds pulled.
func AdaptiveBFS(ctx *grb.Context, A *grb.Matrix[bool], src int, cfg adapt.Config) (*grb.Vector[int32], int, int, error) {
	n := A.NRows()
	if A.NCols() != n {
		return nil, 0, 0, fmt.Errorf("lagraph: AdaptiveBFS needs a square matrix, got %dx%d", n, A.NCols())
	}
	if src < 0 || src >= n {
		return nil, 0, 0, fmt.Errorf("lagraph: AdaptiveBFS source %d out of range [0,%d)", src, n)
	}
	init := trace.Begin(trace.CatRound, "lagraph.bfs-adapt.init")
	A.EnsureCSC() // pull rounds dot through the CSC mirror

	dist, err := filled(ctx, n, int32(0))
	if err != nil {
		init.End()
		return nil, 0, 0, err
	}
	eng := adapt.NewEngine(n, cfg)
	ar := adapt.NewArena[bool](n)
	frontier := ar.Get(grb.List)
	frontier.SetElement(src, true)
	init.End()

	level := int32(1)
	rounds, pulls := 0, 0
	for {
		if ctx.Stopped() {
			return nil, rounds, pulls, ErrTimeout
		}
		rounds++
		sp := trace.Begin(trace.CatRound, "lagraph.bfs-adapt.round")
		sp.Round = rounds
		sp.NNZIn = int64(frontier.NVals())
		done := false
		err := func() error {
			if err := grb.AssignConstant(ctx, dist, grb.StructMask(frontier), nil, level, grb.Desc{}); err != nil {
				return err
			}
			if frontier.NVals() == 0 {
				done = true
				return nil
			}
			dec := eng.Decide(frontier.NVals())
			if dec.Direction == adapt.Pull {
				pulls++
			}
			frontier.Convert(dec.Rep)
			// The next frontier comes from the arena instead of aliasing
			// the input (which would force the kernel to snapshot it).
			next := ar.Get(dec.Rep)
			mask := grb.ValueMask(dist).Comp()
			if err := grb.VxM(ctx, next, mask, nil, grb.LorLand(), frontier, A,
				grb.Desc{Replace: true, Force: dec.Direction.Hint()}); err != nil {
				return err
			}
			ar.Put(frontier)
			frontier = next
			return nil
		}()
		sp.NNZOut = int64(frontier.NVals())
		sp.End()
		if err != nil {
			return nil, rounds, pulls, err
		}
		if done {
			break
		}
		level++
	}
	return dist, rounds, pulls, nil
}

// AdaptivePageRank is the residual formulation (gb-res) with the
// engine deciding the contribution product's direction per iteration
// and the contribution vector drawn from the arena. The residual is
// structurally dense, so the free-running engine settles on Pull/Dense
// immediately — the value of the adaptive port is that forced
// decisions prove the whole decision matrix equivalent on an
// order-sensitive (float) semiring. Digest-compatible with gb-res
// under core's quantized rank check.
func AdaptivePageRank(ctx *grb.Context, A *grb.Matrix[float64], opt PageRankOptions, cfg adapt.Config) (*grb.Vector[float64], error) {
	n := A.NRows()
	if A.NCols() != n {
		return nil, fmt.Errorf("lagraph: AdaptivePageRank needs a square matrix, got %dx%d", n, A.NCols())
	}
	if n == 0 {
		return grb.NewVector[float64](0, grb.Dense), nil
	}
	d := opt.Damping
	init := trace.Begin(trace.CatRound, "lagraph.pr-adapt.init")
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

	eng := adapt.NewEngine(n, cfg)
	ar := adapt.NewArena[float64](n)
	init.End()
	plus := func(a, b float64) float64 { return a + b }
	for it := 0; it < opt.Iterations; it++ {
		if ctx.Stopped() {
			return nil, ErrTimeout
		}
		sp := trace.Begin(trace.CatRound, "lagraph.pr-adapt.round")
		sp.Round = it + 1
		err := func() error {
			if err := grb.EWiseAdd(ctx, pr, nil, nil, plus, pr, res, grb.Desc{}); err != nil {
				return err
			}
			dec := eng.Decide(res.NVals())
			contrib := ar.Get(dec.Rep)
			if err := grb.EWiseMult(ctx, contrib, nil, nil, func(a, b float64) float64 { return a * b }, res, invdeg, grb.Desc{Replace: true}); err != nil {
				return err
			}
			if err := grb.VxM(ctx, res, nil, nil, grb.PlusTimes[float64](), contrib, A,
				grb.Desc{Replace: true, Force: dec.Direction.Hint()}); err != nil {
				return err
			}
			ar.Put(contrib)
			return grb.Apply(ctx, res, nil, nil, func(x float64) float64 { return d * x }, res, grb.Desc{Replace: true})
		}()
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	return pr, nil
}

// AdaptiveSSSP is bulk-synchronous delta-stepping (sssp.go) with the
// light-relaxation frontier adapted per round and every per-round
// scratch vector pooled. Distances are bit-identical to the static
// kernel: min-plus folds are order-insensitive, so neither direction
// nor representation can show in the result.
func AdaptiveSSSP[T grb.Number](ctx *grb.Context, A *grb.Matrix[T], src int, delta T, cfg adapt.Config) (SSSPResult[T], error) {
	n := A.NRows()
	if A.NCols() != n {
		return SSSPResult[T]{}, fmt.Errorf("lagraph: AdaptiveSSSP needs a square matrix, got %dx%d", n, A.NCols())
	}
	if src < 0 || src >= n {
		return SSSPResult[T]{}, fmt.Errorf("lagraph: AdaptiveSSSP source %d out of range [0,%d)", src, n)
	}
	if delta <= 0 {
		return SSSPResult[T]{}, fmt.Errorf("lagraph: AdaptiveSSSP delta must be positive")
	}
	inf := grb.MaxValue[T]()
	minT := func(a, b T) T {
		if a < b {
			return a
		}
		return b
	}

	init := trace.Begin(trace.CatRound, "lagraph.sssp-adapt.init")
	AL := grb.SelectMatrix(A, func(v T, _, _ int) bool { return v <= delta })
	AH := grb.SelectMatrix(A, func(v T, _, _ int) bool { return v > delta })
	AL.EnsureCSC() // forced-pull light rounds need the mirror

	t, err := filled(ctx, n, inf)
	if err != nil {
		init.End()
		return SSSPResult[T]{}, err
	}
	t.SetElement(src, 0)
	eng := adapt.NewEngine(n, cfg)
	ar := adapt.NewArena[T](n)
	init.End()

	res := SSSPResult[T]{Dist: t}
	lower, upper := T(0), delta
	for {
		if ctx.Stopped() {
			return res, ErrTimeout
		}
		res.Buckets++
		tmasked := ar.Get(grb.Sorted)
		if err := grb.SelectVector(ctx, tmasked, nil, func(v T, _, _ int) bool { return v >= lower && v < upper }, t, grb.Desc{Replace: true}); err != nil {
			return res, err
		}
		for tmasked.NVals() > 0 {
			if ctx.Stopped() {
				return res, ErrTimeout
			}
			res.Rounds++
			sp := trace.Begin(trace.CatRound, "lagraph.sssp-adapt.round")
			sp.Round = res.Rounds
			sp.NNZIn = int64(tmasked.NVals())
			err := func() error {
				dec := eng.Decide(tmasked.NVals())
				tmasked.Convert(dec.Rep)
				// Scratch returns to the arena on the error returns below
				// too, not just the success path (the deferred puts run
				// after SelectVector, so improvedMask's view of improved
				// stays valid for exactly as long as it is read).
				tReq := ar.Get(grb.Sorted)
				defer ar.Put(tReq)
				if err := grb.VxM(ctx, tReq, nil, nil, grb.MinPlus[T](), tmasked, AL,
					grb.Desc{Replace: true, Force: dec.Direction.Hint()}); err != nil {
					return err
				}
				improved := ar.Get(grb.Sorted)
				defer ar.Put(improved)
				lt := func(a, b T) T {
					if a < b {
						return 1
					}
					return 0
				}
				if err := grb.EWiseMult(ctx, improved, nil, nil, lt, tReq, t, grb.Desc{Replace: true}); err != nil {
					return err
				}
				improvedMask := grb.ValueMask(improved)
				if err := grb.EWiseAdd(ctx, t, nil, nil, minT, t, tReq, grb.Desc{}); err != nil {
					return err
				}
				next := ar.Get(grb.Sorted)
				if err := grb.SelectVector(ctx, next, improvedMask, func(v T, _, _ int) bool { return v < upper }, tReq, grb.Desc{Replace: true}); err != nil {
					ar.Put(next)
					return err
				}
				ar.Put(tmasked)
				tmasked = next
				return nil
			}()
			sp.NNZOut = int64(tmasked.NVals())
			sp.End()
			if err != nil {
				return res, err
			}
		}
		ar.Put(tmasked)
		tB := ar.Get(grb.Sorted)
		if err := grb.SelectVector(ctx, tB, nil, func(v T, _, _ int) bool { return v >= lower && v < upper }, t, grb.Desc{Replace: true}); err != nil {
			return res, err
		}
		if tB.NVals() > 0 {
			tReq := ar.Get(grb.Sorted)
			if err := grb.VxM(ctx, tReq, nil, nil, grb.MinPlus[T](), tB, AH, grb.Desc{Replace: true}); err != nil {
				return res, err
			}
			if err := grb.EWiseAdd(ctx, t, nil, nil, minT, t, tReq, grb.Desc{}); err != nil {
				return res, err
			}
			ar.Put(tReq)
		}
		ar.Put(tB)
		remaining := ar.Get(grb.Sorted)
		if err := grb.SelectVector(ctx, remaining, nil, func(v T, _, _ int) bool { return v >= upper && v != inf }, t, grb.Desc{Replace: true}); err != nil {
			return res, err
		}
		if remaining.NVals() == 0 {
			break
		}
		m := grb.ReduceVector(ctx, grb.MinMonoid[T](), remaining)
		ar.Put(remaining)
		lower = m / delta * delta
		upper = lower + delta
	}
	return res, nil
}

// AdaptiveCC is FastSV (cc.go) with the grandparent product's direction
// engine-decided and the per-round shortcut vector pooled. The driving
// vector always holds all n entries, so the free-running engine settles
// on Pull/Dense; min-second folds keep forced cells bit-identical.
func AdaptiveCC(ctx *grb.Context, A *grb.Matrix[uint32], cfg adapt.Config) (*grb.Vector[uint32], int, error) {
	n := A.NRows()
	if A.NCols() != n {
		return nil, 0, fmt.Errorf("lagraph: AdaptiveCC needs a square matrix, got %dx%d", n, A.NCols())
	}
	init := trace.Begin(trace.CatRound, "lagraph.cc-adapt.init")
	A.EnsureCSC() // forced-push rounds scatter through the mirror
	f := grb.NewVector[uint32](n, grb.Dense)
	for i := 0; i < n; i++ {
		f.SetElement(i, uint32(i))
	}
	gp := f.Dup()
	mngp := f.Dup()
	eng := adapt.NewEngine(n, cfg)
	ar := adapt.NewArena[uint32](n)
	init.End()

	rounds := 0
	for {
		if ctx.Stopped() {
			return nil, rounds, ErrTimeout
		}
		rounds++
		sp := trace.Begin(trace.CatRound, "lagraph.cc-adapt.round")
		sp.Round = rounds
		stable := false
		err := func() error {
			dec := eng.Decide(gp.NVals())
			gp.Convert(dec.Rep)
			if err := grb.MxV(ctx, mngp, nil, minU32, grb.MinSecond[uint32](), A, gp,
				grb.Desc{Force: dec.Direction.Hint()}); err != nil {
				return err
			}
			if err := grb.ScatterAccum(ctx, f, minU32, f, mngp, grb.Desc{}); err != nil {
				return err
			}
			if err := grb.EWiseAdd(ctx, f, nil, nil, minU32, f, mngp, grb.Desc{}); err != nil {
				return err
			}
			if err := grb.EWiseAdd(ctx, f, nil, nil, minU32, f, gp, grb.Desc{}); err != nil {
				return err
			}
			gpNew := ar.Get(grb.Dense)
			if err := grb.Gather(ctx, gpNew, f, f, grb.Desc{}); err != nil {
				return err
			}
			if vectorsEqualU32(gp, gpNew) {
				ar.Put(gpNew)
				stable = true
				return nil
			}
			ar.Put(gp)
			gp = gpNew
			return nil
		}()
		sp.End()
		if err != nil {
			return nil, rounds, err
		}
		if stable {
			break
		}
	}
	for {
		next := ar.Get(grb.Dense)
		if err := grb.Gather(ctx, next, f, f, grb.Desc{}); err != nil {
			return nil, rounds, err
		}
		if vectorsEqualU32(f, next) {
			ar.Put(next)
			break
		}
		ar.Put(f)
		f = next
	}
	return f, rounds, nil
}
