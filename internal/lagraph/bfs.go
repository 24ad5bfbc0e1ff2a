package lagraph

import (
	"fmt"

	"graphstudy/internal/fuse"
	"graphstudy/internal/grb"
	"graphstudy/internal/trace"
)

// BFS is the study's Algorithm 2: round-based, data-driven, push-style
// breadth-first search over the boolean adjacency matrix. The returned dense
// vector holds level+1 per reached vertex (the source has value 1) and an
// explicit 0 for unreached vertices, exactly like the LAGraph code the
// paper lists: the dist vector is densified with 0 first, and the non-zero
// values then double as the "visited" value mask.
//
// Each round issues three API calls — masked assign, nvals, and masked vxm —
// which is the "lightweight loops" limitation the study quantifies (three
// passes per round versus Lonestar's single fused loop).
func BFS(ctx *grb.Context, A *grb.Matrix[bool], src int) (*grb.Vector[int32], int, error) {
	return bfs(ctx, A, src, "bfs", (*fuse.Program).RunEager)
}

// FusedBFS is BFS with each round planned by internal/fuse: the masked
// assign and the masked vxm form the planner's bfs-expand window, one
// frontier traversal with no mask bitmaps and no assign entry list. Rounds
// and the returned vector match BFS exactly.
func FusedBFS(ctx *grb.Context, A *grb.Matrix[bool], src int) (*grb.Vector[int32], int, error) {
	return bfs(ctx, A, src, "bfs-dag", (*fuse.Program).Run)
}

// bfs is the one BFS round loop; family names its trace spans.
func bfs(ctx *grb.Context, A *grb.Matrix[bool], src int, family string, run func(*fuse.Program) error) (*grb.Vector[int32], int, error) {
	n := A.NRows()
	if A.NCols() != n {
		return nil, 0, fmt.Errorf("lagraph: BFS needs a square matrix, got %dx%d", n, A.NCols())
	}
	if src < 0 || src >= n {
		return nil, 0, fmt.Errorf("lagraph: BFS source %d out of range [0,%d)", src, n)
	}

	// dist = 0 everywhere; frontier = {src}.
	init := trace.Begin(trace.CatRound, "lagraph."+family+".init")
	dist, err := filled(ctx, n, int32(0))
	if err != nil {
		init.End()
		return nil, 0, err
	}
	frontier := grb.NewVector[bool](n, grb.List)
	frontier.SetElement(src, true)
	init.End()

	roundOp := "lagraph." + family + ".round"
	level := int32(1)
	rounds := 0
	for {
		if ctx.Stopped() {
			return nil, rounds, ErrTimeout
		}
		rounds++
		sp := trace.Begin(trace.CatRound, roundOp)
		sp.Round = rounds
		sp.NNZIn = int64(frontier.NVals())
		// Pass 1: dist<frontier> = level.
		p := fuse.NewProgram(ctx)
		fuse.AssignConstant(p, dist, fuse.StructOf(frontier), nil, level, grb.Desc{})
		// Pass 2: termination check (pass 1 writes dist only, so the
		// frontier's nvals can be read before it runs).
		done := frontier.NVals() == 0
		if !done {
			// Pass 3: frontier<!dist> = frontier vxm A (LOR.LAND, replace).
			// The value mask over dist keeps visited vertices (non-zero
			// level) out of the new frontier.
			fuse.VxM(p, frontier, fuse.ValueOf(dist).Comp(), nil, grb.LorLand(), frontier, A, grb.Desc{Replace: true})
		}
		err := run(p)
		sp.NNZOut = int64(frontier.NVals())
		sp.End()
		if err != nil {
			return nil, rounds, err
		}
		if done {
			return dist, rounds, nil
		}
		level++
	}
}

// BFSLevels converts the BFS result vector to the canonical reference form:
// hop counts with source 0 and Inf32 (MaxUint32) for unreachable vertices.
func BFSLevels(dist *grb.Vector[int32]) []uint32 {
	sp := trace.Begin(trace.CatRound, "lagraph.extract")
	defer sp.End()
	out := make([]uint32, dist.Size())
	for i := range out {
		out[i] = ^uint32(0)
	}
	dist.ForEach(func(i int, v int32) {
		if v > 0 {
			out[i] = uint32(v - 1)
		}
	})
	return out
}
