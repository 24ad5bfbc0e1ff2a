package lagraph

import (
	"fmt"

	"graphstudy/internal/grb"
	"graphstudy/internal/trace"
)

// KTrussResult reports the k-truss outcome.
type KTrussResult struct {
	// Edges is the number of directed edges remaining in the k-truss.
	Edges int64
	// Rounds is the number of SpGEMM+select rounds executed; the study
	// reports the matrix formulation needs ~1.6x more rounds than Lonestar
	// because removals only take effect at round boundaries (Jacobi).
	Rounds int
	// Truss is the surviving adjacency pattern (values are final supports).
	Truss *grb.Matrix[int64]
}

// KTruss computes the k-truss of a symmetric boolean-pattern adjacency
// matrix (no self loops) in the LAGraph style: each round holds the
// support of every surviving edge, C<S> = S*S under plus_pair, then keeps
// edges with support >= k-2 via GrB_select, until no edge is dropped.
// Rounds are Jacobi — edges removed in a round only stop contributing
// support in the next round — but only the first round computes C in
// full. A later round updates the supports the removed edges D changed,
// in place in the previous select's output (see deltaSupports), so it
// materializes the two delta products rather than the whole C.
func KTruss(ctx *grb.Context, A *grb.Matrix[int64], k uint32) (KTrussResult, error) {
	return ktruss(ctx, A, k, nil)
}

// ktruss is KTruss with a hook that sees every round's pattern S and its
// supports C before the select; tests compare the rounds against a full
// recompute through it.
func ktruss(ctx *grb.Context, A *grb.Matrix[int64], k uint32, onRound func(round int, S, C *grb.Matrix[int64])) (KTrussResult, error) {
	n := A.NRows()
	if A.NCols() != n {
		return KTrussResult{}, fmt.Errorf("lagraph: KTruss needs a square matrix, got %dx%d", n, A.NCols())
	}
	if k < 3 {
		return KTrussResult{Edges: A.NVals(), Truss: A}, nil
	}
	// S is the round's pattern; prev is the previous round's (nil in the
	// first round), whose supports S's values hold since the select.
	S := A
	var prev *grb.Matrix[int64]
	rounds := 0
	for {
		if ctx.Stopped() {
			return KTrussResult{Rounds: rounds}, ErrTimeout
		}
		rounds++
		sp := trace.Begin(trace.CatRound, "lagraph.ktruss.round")
		sp.Round = rounds
		sp.NNZIn = S.NVals()
		C, err := supports(ctx, prev, S)
		if err != nil {
			sp.End()
			return KTrussResult{Rounds: rounds}, err
		}
		if onRound != nil {
			onRound(rounds, S, C)
		}
		next := grb.SelectMatrix(C, func(v int64, _, _ int) bool { return v >= int64(k-2) })
		sp.NNZOut = next.NVals()
		sp.End()
		if next.NVals() == S.NVals() {
			return KTrussResult{Edges: next.NVals(), Rounds: rounds, Truss: next}, nil
		}
		prev, S = S, next
	}
}

// supports returns C<S> = S*S under plus_pair. In the first round (prev
// nil) it runs the product. In a later round S is the previous round's
// select output, so it holds the previous supports on its own pattern, and
// deltaSupports updates them in place unless the delta products would
// cost at least as many multiplies as the full product. Both give the
// same supports; the delta form also keeps edges whose support fell to
// zero as explicit zeros, which the select drops like any other edge
// below k-2.
//
// The price needs no D: on the rows S's mask admits, a row of S_old splits
// into its S_new and D parts, so flops(D*S_old) = flops(S_old*S_old) -
// flops(S_new*S_old) and flops(S_new*D) = flops(S_new*S_old) -
// flops(S_new*S_new). The delta products cost flops(S_old*S_old) -
// flops(S_new*S_new), less than the full product's flops(S_new*S_new)
// exactly when S_old*S_old costs under twice as much. A round that drops
// every edge (the road grid has no triangles) leaves an empty mask, both
// counts are zero, and the empty full product runs.
func supports(ctx *grb.Context, prev, S *grb.Matrix[int64]) (*grb.Matrix[int64], error) {
	mask := S.Pattern()
	if prev != nil && grb.MxMFlops(mask, prev, prev) < 2*grb.MxMFlops(mask, S, S) {
		return S, deltaSupports(ctx, prev, S)
	}
	return grb.MxM(ctx, mask, grb.PlusPair[int64](), S, S)
}

// deltaSupports turns the previous round's supports, which S holds, into
// this round's. With D = S_old - S_new the edges the last select removed,
// S_old = S_new + D gives S_new*S_new = S_old*S_old - D*S_old - S_new*D,
// and on S_new's pattern:
//
//	C_new<S_new> = C_old<S_new> - (D*S_old)<S_new> - (S_new*D)<S_new>
//
// Supports are integer counts, so the update is exact. Both products are
// masked by S_new, so their patterns are subsets of S's and they fold into
// its values in place. Their work scales with |D| times degree: MxM picks
// Gustavson for them, because D is much sparser than the mask.
func deltaSupports(ctx *grb.Context, prev, S *grb.Matrix[int64]) error {
	mask := S.Pattern()
	D, err := grb.PatternMinus(ctx, prev, mask)
	if err != nil {
		return err
	}
	minus := func(c, d int64) int64 { return c - d }
	for _, ab := range [2][2]*grb.Matrix[int64]{{D, prev}, {S, D}} {
		P, err := grb.MxM(ctx, mask, grb.PlusPair[int64](), ab[0], ab[1])
		if err != nil {
			return err
		}
		if err := grb.FoldMatrix(ctx, minus, S, P); err != nil {
			return err
		}
	}
	return nil
}
