package lagraph

import (
	"testing"

	"graphstudy/internal/adapt"
	"graphstudy/internal/gen"
	"graphstudy/internal/grb"
	"graphstudy/internal/verify"
)

// TestBFSPushPullMatchesReference: direction-optimized BFS (AdaptiveBFS
// with the free-running engine) matches the serial reference.
func TestBFSPushPullMatchesReference(t *testing.T) {
	for gname, g := range testGraphs(t) {
		A := grb.BoolMatrixFromGraph(g)
		src := g.MaxOutDegreeVertex()
		want := verify.BFSLevels(g, src)
		for cname, ctx := range testContexts() {
			dist, rounds, _, err := AdaptiveBFS(ctx, A, int(src), adapt.DefaultConfig())
			if err != nil {
				t.Fatalf("%s/%s: %v", gname, cname, err)
			}
			if rounds < 1 {
				t.Fatal("no rounds")
			}
			got := BFSLevels(dist)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%s: level[%d] = %d, want %d", gname, cname, i, got[i], want[i])
				}
			}
		}
	}
}

func TestBFSPushPullActuallyPulls(t *testing.T) {
	// From a power-law hub the frontier floods immediately: at least one
	// pull round must trigger.
	in, _ := gen.ByName("rmat22")
	g := in.Build(gen.ScaleTest)
	A := grb.BoolMatrixFromGraph(g)
	_, _, pulls, err := AdaptiveBFS(grb.NewGaloisBLASContext(4), A, int(g.MaxOutDegreeVertex()), adapt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if pulls == 0 {
		t.Fatal("expected a pull round on a flooding frontier")
	}
}

func TestSSSPBellmanFordMatchesDijkstra(t *testing.T) {
	for gname, g := range testGraphs(t) {
		src := g.MaxOutDegreeVertex()
		want := verify.Dijkstra(g, src)
		A := grb.WeightMatrixFromGraph(g)
		res, err := SSSPBellmanFord(grb.NewGaloisBLASContext(4), A, int(src))
		if err != nil {
			t.Fatalf("%s: %v", gname, err)
		}
		got := Distances(res.Dist)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: dist[%d] = %d, want %d", gname, i, got[i], want[i])
			}
		}
	}
}

func TestBellmanFordNeedsMoreRoundsThanDeltaStepping(t *testing.T) {
	// On the road network, Bellman-Ford's rounds ≈ hop diameter of the
	// shortest-path tree; delta-stepping's bucketing cuts the full-matrix
	// products it needs. (Both are bulk-synchronous; this is the classic
	// reason LAGraph ships delta-stepping at all.)
	in, _ := gen.ByName("road-USA-W")
	g := in.Build(gen.ScaleTest)
	src := in.Source(g)
	A := grb.WeightMatrixFromGraph(g)
	ctx := grb.NewGaloisBLASContext(4)
	bf, err := SSSPBellmanFord(ctx, A, int(src))
	if err != nil {
		t.Fatal(err)
	}
	if bf.Rounds < 10 {
		t.Fatalf("bellman-ford rounds suspiciously low: %d", bf.Rounds)
	}
}

// TestBFSFusedMatchesReference: BFS through the fusion planner (the
// bfs-expand window) matches the serial reference.
func TestBFSFusedMatchesReference(t *testing.T) {
	for gname, g := range testGraphs(t) {
		A := grb.BoolMatrixFromGraph(g)
		src := g.MaxOutDegreeVertex()
		want := verify.BFSLevels(g, src)
		for cname, ctx := range testContexts() {
			dist, rounds, err := FusedBFS(ctx, A, int(src))
			if err != nil {
				t.Fatalf("%s/%s: %v", gname, cname, err)
			}
			if rounds < 1 {
				t.Fatal("no rounds")
			}
			got := BFSLevels(dist)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%s: level[%d] = %d, want %d", gname, cname, i, got[i], want[i])
				}
			}
		}
	}
}
