// Package lagraph is a LAGraph-style library: the six study workloads (bfs,
// cc, ktruss, pr, sssp, tc) written purely against the GraphBLAS API of
// internal/grb, with no direct access to graph storage or the parallel
// runtime. Run the same code on grb.NewSuiteSparseContext for the study's
// "SS" rows and grb.NewGaloisBLASContext for the "GB" rows.
//
// Each algorithm mirrors the LAGraph variant the study selected (section
// IV): the basic level-synchronous bfs, FastSV for cc, the masked-SpGEMM
// ktruss, topology-driven and residual pagerank, bulk-synchronous
// delta-stepping for sssp, and SandiaDot (plus the listing and sorted
// variants of the differential analysis) for tc.
//
// BFS, residual pagerank and delta-stepping sssp write their round body
// once, as a small internal/fuse program recorded each round. The eager
// entry points (BFS, PageRankResidual, SSSP) run it node by node with
// fuse.Program.RunEager — exactly the grb calls of the paper's matrix-API
// column — and the fused ones (FusedBFS, FusedPageRank, FusedSSSP) run the
// same program through the fusion planner. Execution strategy is thus a
// backend decision, never a second copy of the algorithm.
package lagraph

import (
	"errors"

	"graphstudy/internal/grb"
)

// ErrTimeout is returned when the context's Stop flag interrupts a round
// loop, the analog of a "TO" entry in Table II.
var ErrTimeout = errors.New("lagraph: computation canceled by timeout")

// filled returns a dense n-vector holding v everywhere (GrB_assign with
// GrB_ALL).
func filled[T any](ctx *grb.Context, n int, v T) (*grb.Vector[T], error) {
	w := grb.NewVector[T](n, grb.Dense)
	if err := grb.AssignConstant(ctx, w, nil, nil, v, grb.Desc{}); err != nil {
		return nil, err
	}
	return w, nil
}
