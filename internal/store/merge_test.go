package store

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"graphstudy/internal/graph"
)

// materializeRebuild is the reference MaterializeDeltas is checked against:
// it rebuilds the whole snapshot from an edge map (base edges in CSR order,
// then every op in log order, so the last write to an edge wins) and a full
// sort, through the same Builder path a fresh import takes.
func materializeRebuild(base *graph.Graph, batches []DeltaBatch) *graph.Graph {
	edges := make(map[uint64]uint32, base.NumEdges())
	key := func(u, v uint32) uint64 { return uint64(u)<<32 | uint64(v) }
	for u := uint32(0); u < base.NumNodes; u++ {
		lo, hi := base.RowPtr[u], base.RowPtr[u+1]
		for e := lo; e < hi; e++ {
			w := uint32(0)
			if base.Wt != nil {
				w = base.Wt[e]
			}
			edges[key(u, base.ColIdx[e])] = w
		}
	}
	n := base.NumNodes
	for _, b := range batches {
		for _, op := range b.Ops {
			if op.Del {
				delete(edges, key(op.Src, op.Dst))
				continue
			}
			edges[key(op.Src, op.Dst)] = op.W
			if op.Src >= n {
				n = op.Src + 1
			}
			if op.Dst >= n {
				n = op.Dst + 1
			}
		}
	}
	keys := make([]uint64, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	b := graph.NewBuilder(n, base.Weighted())
	b.Reserve(len(keys))
	for _, k := range keys {
		b.AddEdge(uint32(k>>32), uint32(k), edges[k])
	}
	return b.BuildDedup(graph.KeepFirst)
}

// requireSameSnapshot fails unless got and want have identical CSR arrays
// (weightedness included) and encode to identical GSG2 bytes.
func requireSameSnapshot(t *testing.T, got, want *graph.Graph) {
	t.Helper()
	if got.NumNodes != want.NumNodes {
		t.Fatalf("NumNodes = %d, want %d", got.NumNodes, want.NumNodes)
	}
	if (got.Wt == nil) != (want.Wt == nil) {
		t.Fatalf("weighted = %v, want %v", got.Wt != nil, want.Wt != nil)
	}
	if !reflect.DeepEqual(got.RowPtr, want.RowPtr) {
		t.Fatalf("RowPtr = %v, want %v", got.RowPtr, want.RowPtr)
	}
	if !reflect.DeepEqual(got.ColIdx, want.ColIdx) {
		t.Fatalf("ColIdx = %v, want %v", got.ColIdx, want.ColIdx)
	}
	if len(got.Wt) != len(want.Wt) || (len(got.Wt) > 0 && !reflect.DeepEqual(got.Wt, want.Wt)) {
		t.Fatalf("Wt = %v, want %v", got.Wt, want.Wt)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	var gb, wb bytes.Buffer
	if err := WriteGSG2(&gb, got, nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteGSG2(&wb, want, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatal("GSG2 bytes differ from the rebuild's")
	}
}

// randomBase builds an n-node graph with m random edges. canonical bases go
// through BuildDedup (sorted, no parallel edges, like an import); the others
// keep parallel edges and insertion order, like a hand-built graph.
func randomBase(r *rand.Rand, n uint32, m int, weighted, canonical bool) *graph.Graph {
	b := graph.NewBuilder(n, weighted)
	for i := 0; i < m && n > 0; i++ {
		b.AddEdge(uint32(r.Intn(int(n))), uint32(r.Intn(int(n))), uint32(1+r.Intn(50)))
	}
	if canonical {
		return b.BuildDedup(graph.KeepFirst)
	}
	return b.Build()
}

// randomLineage appends batches of upserts and deletes to base. Deletes
// name base edges, earlier upserts, and absent edges; some upserts name
// vertices up to grow past the base's node count.
func randomLineage(r *rand.Rand, base *graph.Graph, batches, grow int) []DeltaBatch {
	span := int(base.NumNodes) + grow
	if span == 0 {
		span = 1
	}
	var seen []DeltaOp
	out := make([]DeltaBatch, batches)
	for k := range out {
		ops := make([]DeltaOp, 1+r.Intn(12))
		for i := range ops {
			switch c := r.Intn(10); {
			case c < 2 && base.NumEdges() > 0: // delete a base edge
				u := uint32(r.Intn(int(base.NumNodes)))
				for base.OutDegree(u) == 0 {
					u = uint32(r.Intn(int(base.NumNodes)))
				}
				ops[i] = DeltaOp{Del: true, Src: u, Dst: base.OutEdges(u)[r.Intn(int(base.OutDegree(u)))]}
			case c < 4 && len(seen) > 0: // delete or re-upsert an earlier op's edge
				prev := seen[r.Intn(len(seen))]
				ops[i] = DeltaOp{Del: r.Intn(2) == 0, Src: prev.Src, Dst: prev.Dst, W: uint32(1 + r.Intn(50))}
			case c < 5: // delete a random, probably absent, edge
				ops[i] = DeltaOp{Del: true, Src: uint32(r.Intn(span)), Dst: uint32(r.Intn(span))}
			default:
				ops[i] = DeltaOp{Src: uint32(r.Intn(span)), Dst: uint32(r.Intn(span)), W: uint32(1 + r.Intn(50))}
			}
		}
		seen = append(seen, ops...)
		out[k] = DeltaBatch{Epoch: uint64(k + 1), Ops: ops}
	}
	return out
}

// TestMaterializeDeltasMatchesRebuild is the differential check of the
// row-wise merge: over random lineages on weighted, unweighted, canonical
// and hand-built bases, every epoch's snapshot equals the rebuild's, array
// for array and byte for byte.
func TestMaterializeDeltasMatchesRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := uint32(r.Intn(40))
		base := randomBase(r, n, r.Intn(4*int(n)+1), trial%2 == 0, trial%3 != 0)
		batches := randomLineage(r, base, 1+r.Intn(30), r.Intn(6))
		for k := 0; k <= len(batches); k++ {
			got := MaterializeDeltas(base, batches[:k])
			requireSameSnapshot(t, got, materializeRebuild(base, batches[:k]))
		}
	}
}

// parallelBase is a hand-built 3-node graph whose row 0 lists edge (0,2)
// twice, weights 5 then 8.
func parallelBase() *graph.Graph {
	b := graph.NewBuilder(3, true)
	b.AddEdge(0, 2, 5)
	b.AddEdge(1, 0, 4)
	b.AddEdge(0, 2, 8)
	return b.Build()
}

// TestMaterializeDeltasCases pins the cases where a merge could drift from
// a rebuild.
func TestMaterializeDeltasCases(t *testing.T) {
	weighted := deltaTestBase() // 6 nodes: 0-1:5 0-2:3 1-2:7 2-3:1 3-0:2 4-4:9
	unweighted := graph.FromEdges(6, [][2]uint32{{0, 1}, {0, 2}, {1, 2}, {2, 3}})
	cases := []struct {
		name      string
		base      *graph.Graph
		batches   [][]DeltaOp
		nodes     uint32
		edges     uint64
		wantEdges [][3]uint32 // (src, dst, w), checked when non-nil
	}{
		{
			name:      "upsert rewrites a weight",
			base:      weighted,
			batches:   [][]DeltaOp{{{Src: 1, Dst: 2, W: 40}}},
			nodes:     6,
			edges:     6,
			wantEdges: [][3]uint32{{0, 1, 5}, {0, 2, 3}, {1, 2, 40}, {2, 3, 1}, {3, 0, 2}, {4, 4, 9}},
		},
		{
			name:      "delete of an absent edge",
			base:      weighted,
			batches:   [][]DeltaOp{{{Del: true, Src: 2, Dst: 0}, {Del: true, Src: 5, Dst: 5}}},
			nodes:     6,
			edges:     6,
			wantEdges: [][3]uint32{{0, 1, 5}, {0, 2, 3}, {1, 2, 7}, {2, 3, 1}, {3, 0, 2}, {4, 4, 9}},
		},
		{
			// The node count covers every upsert ever logged, not only the
			// net edge set: vertex 9 stays, edgeless.
			name:      "grown vertex deleted again",
			base:      weighted,
			batches:   [][]DeltaOp{{{Src: 9, Dst: 1, W: 3}}, {{Del: true, Src: 9, Dst: 1}}},
			nodes:     10,
			edges:     6,
			wantEdges: [][3]uint32{{0, 1, 5}, {0, 2, 3}, {1, 2, 7}, {2, 3, 1}, {3, 0, 2}, {4, 4, 9}},
		},
		{
			name:    "unweighted base drops op weights",
			base:    unweighted,
			batches: [][]DeltaOp{{{Src: 3, Dst: 1, W: 77}, {Src: 0, Dst: 1, W: 5}}},
			nodes:   6,
			edges:   5,
		},
		{
			// Nodes 4 and 5 of the unweighted base have no edges, and the
			// delta adds none there: the rows stay empty to the end.
			name:    "trailing empty rows",
			base:    unweighted,
			batches: [][]DeltaOp{{{Del: true, Src: 2, Dst: 3}}},
			nodes:   6,
			edges:   3,
		},
		{
			name:      "parallel base edges keep the last weight",
			base:      parallelBase(),
			batches:   [][]DeltaOp{{{Src: 0, Dst: 0, W: 1}}},
			nodes:     3,
			edges:     3,
			wantEdges: [][3]uint32{{0, 0, 1}, {0, 2, 8}, {1, 0, 4}},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var batches []DeltaBatch
			for i, ops := range c.batches {
				batches = append(batches, DeltaBatch{Epoch: uint64(i + 1), Ops: ops})
			}
			got := MaterializeDeltas(c.base, batches)
			requireSameSnapshot(t, got, materializeRebuild(c.base, batches))
			if got.NumNodes != c.nodes || got.NumEdges() != c.edges {
				t.Fatalf("shape %d/%d, want %d/%d", got.NumNodes, got.NumEdges(), c.nodes, c.edges)
			}
			if got.Weighted() != c.base.Weighted() {
				t.Fatalf("weighted = %v, want the base's %v", got.Weighted(), c.base.Weighted())
			}
			if c.wantEdges != nil {
				var want []graph.Edge
				for _, e := range c.wantEdges {
					want = append(want, graph.Edge{Src: e[0], Dst: e[1], W: e[2]})
				}
				if !reflect.DeepEqual(weightedEdges(got), want) {
					t.Fatalf("edges %v, want %v", weightedEdges(got), want)
				}
			}
		})
	}
}

// FuzzMaterializeDeltas drives the merge with fuzzer-chosen bases and
// lineages and checks it against the rebuild. Bytes decode as: node count,
// a weighted flag, a canonical flag, then 4-byte edges (src, dst, weight)
// for the base up to a zero separator edge, then 4-byte ops (flag, src,
// dst, weight) with a flag bit starting a new batch.
func FuzzMaterializeDeltas(f *testing.F) {
	f.Add([]byte{6, 1, 1, 0, 1, 5, 0, 2, 3, 1, 2, 7, 0, 0, 0, 2, 1, 2, 9, 1, 0, 1, 0, 4, 9, 1, 3})
	f.Add([]byte{4, 0, 0, 1, 1, 1, 1, 1, 2, 2, 0, 0, 0, 0, 1, 1, 0, 0, 7, 2, 1, 0})
	f.Add([]byte{0, 1, 1, 0, 0, 0, 0, 0, 5, 5, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 1<<12 {
			return
		}
		n := uint32(data[0] % 32)
		weighted, canonical := data[1]&1 == 1, data[2]&1 == 1
		data = data[3:]
		b := graph.NewBuilder(n, weighted)
		for len(data) >= 4 {
			e := data[:4]
			data = data[4:]
			if e[0] == 0 && e[1] == 0 {
				break
			}
			if n > 0 {
				b.AddEdge(uint32(e[0])%n, uint32(e[1])%n, uint32(e[2]))
			}
		}
		base := b.Build()
		if canonical {
			base = b.BuildDedup(graph.KeepFirst)
		}
		var batches []DeltaBatch
		for len(data) >= 4 {
			op := data[:4]
			data = data[4:]
			if len(batches) == 0 || op[0]&2 != 0 {
				batches = append(batches, DeltaBatch{Epoch: uint64(len(batches) + 1)})
			}
			last := &batches[len(batches)-1]
			last.Ops = append(last.Ops, DeltaOp{Del: op[0]&1 == 1, Src: uint32(op[1] % 40), Dst: uint32(op[2] % 40), W: uint32(op[3])})
		}
		requireSameSnapshot(t, MaterializeDeltas(base, batches), materializeRebuild(base, batches))
	})
}
