package core

import (
	"testing"
	"testing/quick"

	"graphstudy/internal/gen"
	"graphstudy/internal/graph"
	"graphstudy/internal/grb"
	"graphstudy/internal/lagraph"
	"graphstudy/internal/lonestar"
	"graphstudy/internal/verify"
)

// These property tests pit the two APIs against each other and against the
// serial references on *random* graphs, beyond the curated suite: any
// divergence in worklist handling, mask semantics, or semiring corner cases
// on odd topologies (self loops, multi-edges collapsing, disconnected
// shards) surfaces here.

func randomGraph(seed uint64) *graph.Graph {
	n := uint32(20 + seed%40)
	m := int(n) * int(2+seed%6)
	g := gen.Random(n, m, true, 64, seed)
	g.SortAdjacency()
	return g
}

func TestPropertyBFSAcrossSystems(t *testing.T) {
	f := func(seed uint16) bool {
		g := randomGraph(uint64(seed))
		src := g.MaxOutDegreeVertex()
		want := verify.BFSLevels(g, src)

		ls, _, err := lonestar.BFS(g, src, lonestar.Options{Threads: 3})
		if err != nil {
			return false
		}
		A := grb.BoolMatrixFromGraph(g)
		gbv, _, err := lagraph.BFS(grb.NewGaloisBLASContext(3), A, int(src))
		if err != nil {
			return false
		}
		gb := lagraph.BFSLevels(gbv)
		fusedv, _, err := lagraph.FusedBFS(grb.NewSerialContext(), A, int(src))
		if err != nil {
			return false
		}
		fused := lagraph.BFSLevels(fusedv)
		for i := range want {
			if ls[i] != want[i] || gb[i] != want[i] || fused[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySSSPAcrossSystems(t *testing.T) {
	f := func(seed uint16, deltaExp uint8) bool {
		g := randomGraph(uint64(seed) + 7777)
		src := g.MaxOutDegreeVertex()
		want := verify.Dijkstra(g, src)
		delta := uint32(1) << (1 + deltaExp%10)

		o := lonestar.DefaultSSSPOptions()
		o.Threads = 3
		o.Delta = delta
		o.TileSize = 4
		ls, _, err := lonestar.SSSP(g, src, o)
		if err != nil {
			return false
		}
		A := grb.WeightMatrixFromGraph(g)
		res, err := lagraph.SSSP(grb.NewGaloisBLASContext(3), A, int(src), delta)
		if err != nil {
			return false
		}
		gb := lagraph.Distances(res.Dist)
		bf, err := lagraph.SSSPBellmanFord(grb.NewSerialContext(), A, int(src))
		if err != nil {
			return false
		}
		bfd := lagraph.Distances(bf.Dist)
		for i := range want {
			if ls[i] != want[i] || gb[i] != want[i] || bfd[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCCAndTCAcrossSystems(t *testing.T) {
	f := func(seed uint16) bool {
		g := randomGraph(uint64(seed) + 31337)
		sym := g.Symmetrize()
		sym.SortAdjacency()

		wantCC := verify.Components(sym)
		aff, err := lonestar.CCAfforest(sym, lonestar.Options{Threads: 3})
		if err != nil || !verify.SamePartition(aff, wantCC) {
			return false
		}
		Au := grb.MatrixFromGraph(sym, func(uint32) uint32 { return 1 })
		fsv, _, err := lagraph.CCFastSV(grb.NewGaloisBLASContext(3), Au)
		if err != nil || !verify.SamePartition(lagraph.Labels(fsv), wantCC) {
			return false
		}

		wantTC := int64(verify.TriangleCount(sym))
		sorted := lonestar.SortByDegree(sym)
		lsTC, err := lonestar.TriangleCount(sorted, lonestar.Options{Threads: 3})
		if err != nil || lsTC != wantTC {
			return false
		}
		Ai := grb.MatrixFromGraph(sym, func(uint32) int64 { return 1 })
		gbTC, err := lagraph.TriangleCount(grb.NewGaloisBLASContext(3), Ai, lagraph.TCSandiaDot)
		return err == nil && gbTC == wantTC
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyKCoreMISAcrossSystems(t *testing.T) {
	f := func(seed uint16) bool {
		g := randomGraph(uint64(seed) + 99991)
		sym := g.Symmetrize()
		sym.SortAdjacency()

		wantCore := verify.KCore(sym)
		lsCore, err := lonestar.KCore(sym, lonestar.Options{Threads: 3})
		if err != nil {
			return false
		}
		for i := range wantCore {
			if lsCore[i] != wantCore[i] {
				return false
			}
		}
		Au := grb.MatrixFromGraph(sym, func(uint32) uint32 { return 1 })
		gbCore, _, err := lagraph.KCore(grb.NewGaloisBLASContext(3), Au)
		if err != nil {
			return false
		}
		ok := true
		gbCore.ForEach(func(i int, v uint32) {
			if wantCore[i] != v {
				ok = false
			}
		})
		if !ok {
			return false
		}

		lsSet, _, err := lonestar.MIS(sym, uint64(seed), lonestar.Options{Threads: 3})
		if err != nil || verify.CheckIndependentSet(sym, lsSet) != nil {
			return false
		}
		gbSet, _, err := lagraph.MIS(grb.NewGaloisBLASContext(3), Au, uint64(seed))
		return err == nil && verify.CheckIndependentSet(sym, lagraph.Members(gbSet)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
