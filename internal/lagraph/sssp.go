package lagraph

import (
	"fmt"
	"unsafe"

	"graphstudy/internal/fuse"
	"graphstudy/internal/grb"
	"graphstudy/internal/trace"
)

// SSSPResult carries the distance vector and round statistics of the
// bulk-synchronous delta-stepping run.
type SSSPResult[T grb.Number] struct {
	// Dist is dense; unreached vertices hold grb.MaxValue[T]().
	Dist *grb.Vector[T]
	// Rounds counts light-edge relaxation rounds (each is a full
	// vxm + compare + select sequence with barriers in between). The
	// study's asynchronous Lonestar delta-stepping has no such rounds —
	// its absence is the headline 100x-plus win on road networks.
	Rounds int
	// Buckets counts distinct delta buckets processed.
	Buckets int
}

// SSSP is bulk-synchronous delta-stepping in the matrix API, modeled on
// LAGraph's variant 12c (the study's Table II choice): the edge set is split
// into light (w <= delta) and heavy (w > delta) matrices; each bucket phase
// repeatedly relaxes light edges with a min-plus vxm until the bucket
// stabilizes, then relaxes heavy edges once and advances to the bucket
// holding the smallest unsettled distance.
//
// T is uint32 for every graph except eukarya, where the study switches to
// 64-bit distances (its weights reach 2^20).
func SSSP[T grb.Number](ctx *grb.Context, A *grb.Matrix[T], src int, delta T) (SSSPResult[T], error) {
	return deltaStepping(ctx, A, src, delta, "sssp", (*fuse.Program).RunEager)
}

// FusedSSSP is SSSP with each relaxation planned by internal/fuse: the
// light-edge chain (product, compare, fold, select) lowers onto the SpMV
// plus one pass, never materializing the product or the improved flags, and
// the heavy phase's product-then-fold pair fuses the same way. Bucket
// selection stays eager: its control flow reads entry counts between
// operations. Distances and rounds match SSSP exactly.
func FusedSSSP[T grb.Number](ctx *grb.Context, A *grb.Matrix[T], src int, delta T) (SSSPResult[T], error) {
	return deltaStepping(ctx, A, src, delta, "sssp-dag", (*fuse.Program).Run)
}

// deltaStepping is the one delta-stepping round loop; family names its
// trace spans.
func deltaStepping[T grb.Number](ctx *grb.Context, A *grb.Matrix[T], src int, delta T, family string, run func(*fuse.Program) error) (SSSPResult[T], error) {
	n := A.NRows()
	if A.NCols() != n {
		return SSSPResult[T]{}, fmt.Errorf("lagraph: SSSP needs a square matrix, got %dx%d", n, A.NCols())
	}
	if src < 0 || src >= n {
		return SSSPResult[T]{}, fmt.Errorf("lagraph: SSSP source %d out of range [0,%d)", src, n)
	}
	if delta <= 0 {
		return SSSPResult[T]{}, fmt.Errorf("lagraph: SSSP delta must be positive")
	}
	inf := grb.MaxValue[T]()
	minT := func(a, b T) T {
		if a < b {
			return a
		}
		return b
	}
	lt := func(a, b T) T {
		if a < b {
			return 1
		}
		return 0
	}

	// Split edges into light and heavy matrices (two materialized copies of
	// the graph — the matrix API's way of expressing delta-stepping).
	init := trace.Begin(trace.CatRound, "lagraph."+family+".init")
	AL := grb.SelectMatrix(A, func(v T, _, _ int) bool { return v <= delta })
	AH := grb.SelectMatrix(A, func(v T, _, _ int) bool { return v > delta })
	if init.Enabled() {
		var z T
		es := 4 + int64(unsafe.Sizeof(z))
		init.Bytes = (AL.NVals()+AH.NVals())*es + 2*int64(n+1)*8
	}
	t, err := filled(ctx, n, inf)
	if err != nil {
		init.End()
		return SSSPResult[T]{}, err
	}
	t.SetElement(src, 0)
	init.End()

	roundOp := "lagraph." + family + ".round"
	res := SSSPResult[T]{Dist: t}
	lower, upper := T(0), delta
	for {
		if ctx.Stopped() {
			return res, ErrTimeout
		}
		res.Buckets++
		// tmasked = entries of t in the current bucket [lower, upper).
		tmasked := grb.NewVector[T](n, grb.Sorted)
		if err := grb.SelectVector(ctx, tmasked, nil, func(v T, _, _ int) bool { return v >= lower && v < upper }, t, grb.Desc{Replace: true}); err != nil {
			return res, err
		}
		// Light-edge phase: relax within the bucket until stable.
		for tmasked.NVals() > 0 {
			if ctx.Stopped() {
				return res, ErrTimeout
			}
			res.Rounds++
			sp := trace.Begin(trace.CatRound, roundOp)
			sp.Round = res.Rounds
			sp.NNZIn = int64(tmasked.NVals())
			tReq := grb.NewVector[T](n, grb.Sorted)
			improved := grb.NewVector[T](n, grb.Sorted)
			next := grb.NewVector[T](n, grb.Sorted)
			p := fuse.NewProgram(ctx)
			p.Temp(tReq, improved)
			fuse.VxM(p, tReq, fuse.NoMask(), nil, grb.MinPlus[T](), tmasked, AL, grb.Desc{Replace: true})
			// improved = positions where tReq < t (an eWiseMult producing a
			// 0/1 vector, then used as a value mask — three more passes).
			fuse.EWiseMult(p, improved, fuse.NoMask(), nil, lt, tReq, t, grb.Desc{Replace: true})
			// t = min(t, tReq).
			fuse.EWiseAdd(p, t, fuse.NoMask(), nil, minT, t, tReq, grb.Desc{})
			// Next inner frontier: improved entries still inside the bucket.
			fuse.Select(p, next, fuse.ValueOf(improved), func(v T, _, _ int) bool { return v < upper }, tReq, grb.Desc{Replace: true})
			err := run(p)
			tmasked = next
			sp.NNZOut = int64(tmasked.NVals())
			sp.End()
			if err != nil {
				return res, err
			}
		}
		// Heavy-edge phase: relax once from everything settled in the bucket.
		tB := grb.NewVector[T](n, grb.Sorted)
		if err := grb.SelectVector(ctx, tB, nil, func(v T, _, _ int) bool { return v >= lower && v < upper }, t, grb.Desc{Replace: true}); err != nil {
			return res, err
		}
		if tB.NVals() > 0 {
			tReq := grb.NewVector[T](n, grb.Sorted)
			p := fuse.NewProgram(ctx)
			p.Temp(tReq)
			fuse.VxM(p, tReq, fuse.NoMask(), nil, grb.MinPlus[T](), tB, AH, grb.Desc{Replace: true})
			fuse.EWiseAdd(p, t, fuse.NoMask(), nil, minT, t, tReq, grb.Desc{})
			if err := run(p); err != nil {
				return res, err
			}
		}
		// Advance to the bucket containing the smallest unsettled distance.
		remaining := grb.NewVector[T](n, grb.Sorted)
		if err := grb.SelectVector(ctx, remaining, nil, func(v T, _, _ int) bool { return v >= upper && v != inf }, t, grb.Desc{Replace: true}); err != nil {
			return res, err
		}
		if remaining.NVals() == 0 {
			break
		}
		m := grb.ReduceVector(ctx, grb.MinMonoid[T](), remaining)
		lower = m / delta * delta // integer bucket floor (T is integral here)
		upper = lower + delta
	}
	return res, nil
}

// Distances extracts the distance vector as uint64 with Inf64 for
// unreachable vertices, the form the verifier compares.
func Distances[T grb.Number](dist *grb.Vector[T]) []uint64 {
	sp := trace.Begin(trace.CatRound, "lagraph.extract")
	defer sp.End()
	inf := grb.MaxValue[T]()
	out := make([]uint64, dist.Size())
	for i := range out {
		out[i] = ^uint64(0)
	}
	dist.ForEach(func(i int, v T) {
		if v != inf {
			out[i] = uint64(v)
		}
	})
	return out
}

// SSSPBellmanFord is the topology-driven matrix sssp (LAGraph ships one):
// every round relaxes every edge with one min-plus vxm over the full
// distance vector, Jacobi style, until no distance improves. It is the
// simplest matrix formulation and the foil for delta-stepping: on a graph
// of diameter D it runs Θ(D) full-matrix products.
func SSSPBellmanFord[T grb.Number](ctx *grb.Context, A *grb.Matrix[T], src int) (SSSPResult[T], error) {
	n := A.NRows()
	if A.NCols() != n {
		return SSSPResult[T]{}, fmt.Errorf("lagraph: SSSPBellmanFord needs a square matrix, got %dx%d", n, A.NCols())
	}
	if src < 0 || src >= n {
		return SSSPResult[T]{}, fmt.Errorf("lagraph: SSSPBellmanFord source %d out of range [0,%d)", src, n)
	}
	inf := grb.MaxValue[T]()
	minT := func(a, b T) T {
		if a < b {
			return a
		}
		return b
	}
	t, err := filled(ctx, n, inf)
	if err != nil {
		return SSSPResult[T]{}, err
	}
	t.SetElement(src, 0)

	res := SSSPResult[T]{Dist: t, Buckets: 1}
	for {
		if ctx.Stopped() {
			return res, ErrTimeout
		}
		res.Rounds++
		if res.Rounds > n+1 {
			return res, fmt.Errorf("lagraph: SSSPBellmanFord exceeded %d rounds (negative cycle?)", n)
		}
		sp := trace.Begin(trace.CatRound, "lagraph.sssp-bf.round")
		sp.Round = res.Rounds
		stop := false
		err := func() error {
			// tReq = t vxm A (min-plus) over every finite distance.
			finite := grb.NewVector[T](n, grb.Sorted)
			if err := grb.SelectVector(ctx, finite, nil, func(v T, _, _ int) bool { return v != inf }, t, grb.Desc{Replace: true}); err != nil {
				return err
			}
			tReq := grb.NewVector[T](n, grb.Sorted)
			if err := grb.VxM(ctx, tReq, nil, nil, grb.MinPlus[T](), finite, A, grb.Desc{Replace: true}); err != nil {
				return err
			}
			// improved = positions where tReq < t.
			improved := grb.NewVector[T](n, grb.Sorted)
			lt := func(a, b T) T {
				if a < b {
					return 1
				}
				return 0
			}
			if err := grb.EWiseMult(ctx, improved, nil, nil, lt, tReq, t, grb.Desc{Replace: true}); err != nil {
				return err
			}
			if grb.ValueMask(improved).Count() == 0 {
				stop = true
				return nil
			}
			return grb.EWiseAdd(ctx, t, nil, nil, minT, t, tReq, grb.Desc{})
		}()
		sp.End()
		if err != nil {
			return res, err
		}
		if stop {
			break
		}
	}
	return res, nil
}
