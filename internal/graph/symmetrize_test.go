package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// Symmetrize's merge path must give the arrays its Builder path
// (symmetrizeBuild, the fallback for inputs without sorted in-edges) gives,
// array for array: row pointers, neighbors, and nil-ness.

// rawGraph builds g from edges through Build, keeping self loops, parallel
// edges and insertion order; sorted additionally sorts rows and builds the
// in-edges, which is the shape the merge path takes.
func rawGraph(n uint32, weighted, sorted bool, edges [][3]uint32) *Graph {
	b := NewBuilder(n, weighted)
	for _, e := range edges {
		b.AddEdge(e[0], e[1], e[2])
	}
	g := b.Build()
	if sorted {
		g.SortAdjacency()
		g.BuildIn()
	}
	return g
}

// checkSymmetrize compares both paths on g and, when the merge path is
// expected, that g takes it.
func checkSymmetrize(t *testing.T, name string, g *Graph, wantMerge bool) {
	t.Helper()
	if got := g.mergeable(); got != wantMerge {
		t.Fatalf("%s: mergeable = %v, want %v", name, got, wantMerge)
	}
	got, want := g.Symmetrize(), g.symmetrizeBuild()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Symmetrize =\n%+v\nwant\n%+v", name, got, want)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

func TestSymmetrizeMergeMatchesBuilder(t *testing.T) {
	cases := []struct {
		name  string
		n     uint32
		edges [][3]uint32
	}{
		{"empty", 0, nil},
		{"edgeless", 5, nil},
		{"single-loop", 1, [][3]uint32{{0, 0, 4}}},
		{"loops-only", 3, [][3]uint32{{0, 0, 1}, {2, 2, 3}, {2, 2, 1}}},
		{"one-edge", 2, [][3]uint32{{0, 1, 7}}},
		{"both-directions", 2, [][3]uint32{{0, 1, 7}, {1, 0, 3}}},
		{"parallel", 3, [][3]uint32{{0, 1, 9}, {0, 1, 3}, {1, 0, 5}, {1, 2, 2}, {1, 2, 2}, {2, 1, 8}}},
		{"trailing-empty-rows", 8, [][3]uint32{{0, 1, 1}, {1, 2, 2}, {2, 0, 3}}},
		{"leading-empty-rows", 6, [][3]uint32{{5, 4, 2}, {4, 3, 6}, {3, 5, 1}}},
		{"star-in", 6, [][3]uint32{{1, 0, 5}, {2, 0, 4}, {3, 0, 3}, {4, 0, 2}, {5, 0, 1}, {0, 0, 9}}},
		{"mixed", 7, [][3]uint32{
			{0, 3, 4}, {3, 0, 2}, {0, 3, 1}, {6, 0, 8}, {2, 2, 5}, {2, 5, 7}, {5, 2, 7}, {4, 1, 3}, {1, 4, 9}, {1, 4, 2},
		}},
	}
	for _, c := range cases {
		for _, weighted := range []bool{false, true} {
			name := fmt.Sprintf("%s/weighted=%v", c.name, weighted)
			checkSymmetrize(t, name, rawGraph(c.n, weighted, true, c.edges), true)
			// Without in-edges, or with an unsorted row, Symmetrize takes
			// the Builder path.
			checkSymmetrize(t, name+"/no-in", rawGraph(c.n, weighted, false, c.edges), false)
		}
	}
	unsorted := rawGraph(3, true, false, [][3]uint32{{0, 2, 1}, {0, 1, 2}, {1, 0, 3}})
	unsorted.BuildIn()
	checkSymmetrize(t, "unsorted-row", unsorted, false)
}

func FuzzSymmetrize(f *testing.F) {
	f.Add(uint8(4), true, []byte{0, 1, 1, 0, 2, 2, 3, 3})
	f.Add(uint8(1), false, []byte{0, 0})
	f.Add(uint8(9), true, []byte{8, 0, 8, 0, 0, 8, 3, 3, 5, 1})
	f.Add(uint8(0), false, []byte{})
	f.Fuzz(func(t *testing.T, n uint8, weighted bool, data []byte) {
		// Every byte pair is an edge; its weight derives from both ends and
		// its position, so parallel edges carry different weights.
		nodes := uint32(n%32) + 1
		var edges [][3]uint32
		for k := 0; k+1 < len(data); k += 2 {
			u, v := uint32(data[k])%nodes, uint32(data[k+1])%nodes
			edges = append(edges, [3]uint32{u, v, uint32(data[k]^data[k+1]) + uint32(k)%5})
		}
		checkSymmetrize(t, "sorted", rawGraph(nodes, weighted, true, edges), true)
		checkSymmetrize(t, "raw", rawGraph(nodes, weighted, false, edges), false)
	})
}

// TestAliasInMatchesBuildIn: a Symmetrize result's CSC is its CSR, so
// AliasIn gives the in-edges BuildIn would, and SizeBytes counts the shared
// arrays once.
func TestAliasInMatchesBuildIn(t *testing.T) {
	g := rawGraph(6, true, true, [][3]uint32{
		{0, 1, 4}, {1, 0, 2}, {0, 5, 1}, {3, 3, 7}, {4, 2, 9}, {2, 4, 3}, {4, 2, 6},
	})
	sym := g.Symmetrize()
	fresh := *sym
	fresh.InRowPtr, fresh.InColIdx, fresh.InWt = nil, nil, nil
	fresh.BuildIn()
	sym.AliasIn()
	if !reflect.DeepEqual(sym.InRowPtr, fresh.InRowPtr) || !reflect.DeepEqual(sym.InColIdx, fresh.InColIdx) ||
		!reflect.DeepEqual(sym.InWt, fresh.InWt) {
		t.Fatal("aliased in-edges differ from BuildIn")
	}
	distinct := uint64(len(sym.RowPtr))*8 + uint64(len(sym.ColIdx))*4
	if got := sym.SizeBytes(); got != distinct {
		t.Fatalf("aliased SizeBytes = %d, want %d", got, distinct)
	}
	if got, want := fresh.SizeBytes(), 2*distinct; got != want {
		t.Fatalf("copied SizeBytes = %d, want %d", got, want)
	}
}

// BenchmarkSymmetrize times the closure of a skewed weighted graph — an
// RMAT scale-13 edge list, quadrant odds 0.57/0.19/0.19/0.05, 16 edges per
// vertex — through the merge and through the Builder.
func BenchmarkSymmetrize(b *testing.B) {
	const scale = 13
	r := rand.New(rand.NewSource(3))
	edges := make([][3]uint32, 16<<scale)
	for k := range edges {
		var u, v uint32
		for bit := 0; bit < scale; bit++ {
			switch p := r.Float64(); {
			case p < 0.57:
			case p < 0.76:
				v |= 1 << bit
			case p < 0.95:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		edges[k] = [3]uint32{u, v, uint32(r.Intn(255)) + 1}
	}
	g := rawGraph(1<<scale, true, true, edges)
	for _, path := range []struct {
		name string
		sym  func() *Graph
	}{{"merge", g.Symmetrize}, {"builder", g.symmetrizeBuild}} {
		b.Run(path.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				path.sym()
			}
		})
	}
}
