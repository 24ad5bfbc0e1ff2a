// Package graph provides the compressed-sparse-row (CSR) graph substrate
// shared by every system in this study: the Lonestar/Galois side operates on
// it directly through a graph API, and the GraphBLAS side builds sparse
// matrices from it.
//
// A Graph stores out-edges in CSR form and, optionally, in-edges in CSC form
// (the transpose). Node identifiers are dense uint32 values in [0, NumNodes).
// Edge weights are optional uint32 values; unweighted graphs leave Wt nil.
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// NodeID identifies a vertex. IDs are dense: every value in [0, NumNodes)
// names a vertex.
type NodeID = uint32

// Graph is a directed graph in CSR form. The slice invariants are:
//
//	len(RowPtr) == NumNodes+1, RowPtr[0] == 0, RowPtr is non-decreasing
//	len(ColIdx) == RowPtr[NumNodes] == NumEdges()
//	Wt is nil or len(Wt) == len(ColIdx)
//
// The out-edges of node u are ColIdx[RowPtr[u]:RowPtr[u+1]].
// If in-edge (transpose) storage has been built via BuildIn, the same
// invariants hold for InRowPtr/InColIdx/InWt.
type Graph struct {
	NumNodes uint32
	RowPtr   []uint64
	ColIdx   []uint32
	Wt       []uint32

	InRowPtr []uint64
	InColIdx []uint32
	InWt     []uint32
}

// NumEdges returns the number of directed edges stored in CSR form.
func (g *Graph) NumEdges() uint64 {
	if len(g.RowPtr) == 0 {
		return 0
	}
	return g.RowPtr[g.NumNodes]
}

// Weighted reports whether the graph carries edge weights.
func (g *Graph) Weighted() bool { return g.Wt != nil }

// HasIn reports whether in-edge (CSC) storage has been built.
func (g *Graph) HasIn() bool { return g.InRowPtr != nil }

// OutDegree returns the out-degree of u.
func (g *Graph) OutDegree(u NodeID) uint64 { return g.RowPtr[u+1] - g.RowPtr[u] }

// InDegree returns the in-degree of u. BuildIn must have been called.
func (g *Graph) InDegree(u NodeID) uint64 { return g.InRowPtr[u+1] - g.InRowPtr[u] }

// OutEdges returns the out-neighbor slice of u. The slice aliases graph
// storage and must not be modified.
func (g *Graph) OutEdges(u NodeID) []uint32 { return g.ColIdx[g.RowPtr[u]:g.RowPtr[u+1]] }

// OutWeights returns the weights of u's out-edges, aligned with OutEdges(u).
func (g *Graph) OutWeights(u NodeID) []uint32 { return g.Wt[g.RowPtr[u]:g.RowPtr[u+1]] }

// InEdges returns the in-neighbor slice of u. BuildIn must have been called.
func (g *Graph) InEdges(u NodeID) []uint32 { return g.InColIdx[g.InRowPtr[u]:g.InRowPtr[u+1]] }

// InWeights returns the weights of u's in-edges, aligned with InEdges(u).
func (g *Graph) InWeights(u NodeID) []uint32 { return g.InWt[g.InRowPtr[u]:g.InRowPtr[u+1]] }

// SizeBytes returns the memory footprint of the CSR representation
// (including weights and, if built, the CSC representation). This is the
// quantity reported in Table I of the study.
//
// An in-edge array that shares storage with its out-edge counterpart (see
// AliasIn) is counted once.
func (g *Graph) SizeBytes() uint64 {
	b := uint64(len(g.RowPtr))*8 + uint64(len(g.ColIdx))*4 + uint64(len(g.Wt))*4
	if !sameArray(g.InRowPtr, g.RowPtr) {
		b += uint64(len(g.InRowPtr)) * 8
	}
	if !sameArray(g.InColIdx, g.ColIdx) {
		b += uint64(len(g.InColIdx)) * 4
	}
	if !sameArray(g.InWt, g.Wt) {
		b += uint64(len(g.InWt)) * 4
	}
	return b
}

// sameArray reports whether two non-empty slices start at the same element.
func sameArray[T any](a, b []T) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// Validate checks the CSR invariants and returns a descriptive error if any
// is violated. It is used by tests and by the graph loader.
func (g *Graph) Validate() error {
	if len(g.RowPtr) != int(g.NumNodes)+1 {
		return fmt.Errorf("graph: len(RowPtr)=%d, want NumNodes+1=%d", len(g.RowPtr), g.NumNodes+1)
	}
	if g.RowPtr[0] != 0 {
		return errors.New("graph: RowPtr[0] != 0")
	}
	for u := uint32(0); u < g.NumNodes; u++ {
		if g.RowPtr[u+1] < g.RowPtr[u] {
			return fmt.Errorf("graph: RowPtr decreasing at node %d", u)
		}
	}
	if uint64(len(g.ColIdx)) != g.RowPtr[g.NumNodes] {
		return fmt.Errorf("graph: len(ColIdx)=%d, want RowPtr[n]=%d", len(g.ColIdx), g.RowPtr[g.NumNodes])
	}
	if g.Wt != nil && len(g.Wt) != len(g.ColIdx) {
		return fmt.Errorf("graph: len(Wt)=%d, want %d", len(g.Wt), len(g.ColIdx))
	}
	for _, v := range g.ColIdx {
		if v >= g.NumNodes {
			return fmt.Errorf("graph: edge destination %d out of range [0,%d)", v, g.NumNodes)
		}
	}
	if g.InRowPtr != nil {
		if len(g.InRowPtr) != int(g.NumNodes)+1 {
			return fmt.Errorf("graph: len(InRowPtr)=%d, want %d", len(g.InRowPtr), g.NumNodes+1)
		}
		if uint64(len(g.InColIdx)) != g.InRowPtr[g.NumNodes] {
			return errors.New("graph: InColIdx length mismatch")
		}
		if g.InRowPtr[g.NumNodes] != g.RowPtr[g.NumNodes] {
			return errors.New("graph: in-edge count differs from out-edge count")
		}
	}
	return nil
}

// BuildIn constructs the in-edge (CSC) representation from the out-edge CSR.
// It is idempotent.
func (g *Graph) BuildIn() {
	if g.HasIn() {
		return
	}
	n := int(g.NumNodes)
	m := g.NumEdges()
	inPtr := make([]uint64, n+1)
	for _, dst := range g.ColIdx {
		inPtr[dst+1]++
	}
	for i := 0; i < n; i++ {
		inPtr[i+1] += inPtr[i]
	}
	inCol := make([]uint32, m)
	var inWt []uint32
	if g.Wt != nil {
		inWt = make([]uint32, m)
	}
	cursor := make([]uint64, n)
	copy(cursor, inPtr[:n])
	for u := uint32(0); u < uint32(n); u++ {
		lo, hi := g.RowPtr[u], g.RowPtr[u+1]
		for e := lo; e < hi; e++ {
			dst := g.ColIdx[e]
			p := cursor[dst]
			cursor[dst] = p + 1
			inCol[p] = u
			if inWt != nil {
				inWt[p] = g.Wt[e]
			}
		}
	}
	g.InRowPtr, g.InColIdx, g.InWt = inPtr, inCol, inWt
}

// Transpose returns a new graph whose out-edges are the in-edges of g.
func (g *Graph) Transpose() *Graph {
	g.BuildIn()
	t := &Graph{
		NumNodes: g.NumNodes,
		RowPtr:   g.InRowPtr,
		ColIdx:   g.InColIdx,
		Wt:       g.InWt,
	}
	return t
}

// MaxOutDegreeVertex returns the vertex with the largest out-degree
// (lowest ID wins ties). The study uses it as the bfs/sssp source for all
// graphs except road networks.
func (g *Graph) MaxOutDegreeVertex() NodeID {
	best, bestDeg := NodeID(0), uint64(0)
	for u := uint32(0); u < g.NumNodes; u++ {
		if d := g.OutDegree(u); d > bestDeg {
			best, bestDeg = u, d
		}
	}
	return best
}

// MaxOutDegree returns the largest out-degree in the graph.
func (g *Graph) MaxOutDegree() uint64 {
	var m uint64
	for u := uint32(0); u < g.NumNodes; u++ {
		if d := g.OutDegree(u); d > m {
			m = d
		}
	}
	return m
}

// MaxInDegree returns the largest in-degree in the graph.
func (g *Graph) MaxInDegree() uint64 {
	g.BuildIn()
	var m uint64
	for u := uint32(0); u < g.NumNodes; u++ {
		if d := g.InDegree(u); d > m {
			m = d
		}
	}
	return m
}

// SortAdjacency sorts each adjacency list by destination ID (weights follow
// their edges). Sorted adjacency is required by the merge-based triangle
// counting kernels and by HasEdge.
func (g *Graph) SortAdjacency() {
	for u := uint32(0); u < g.NumNodes; u++ {
		lo, hi := g.RowPtr[u], g.RowPtr[u+1]
		adj := g.ColIdx[lo:hi]
		if isSorted(adj) {
			continue
		}
		if g.Wt == nil {
			sort.Slice(adj, func(i, j int) bool { return adj[i] < adj[j] })
			continue
		}
		wt := g.Wt[lo:hi]
		idx := make([]int, len(adj))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(i, j int) bool { return adj[idx[i]] < adj[idx[j]] })
		na := make([]uint32, len(adj))
		nw := make([]uint32, len(wt))
		for i, k := range idx {
			na[i] = adj[k]
			nw[i] = wt[k]
		}
		copy(adj, na)
		copy(wt, nw)
	}
}

func isSorted(a []uint32) bool {
	for i := 1; i < len(a); i++ {
		if a[i-1] > a[i] {
			return false
		}
	}
	return true
}

// HasEdge reports whether the directed edge (u,v) exists. Adjacency lists
// must be sorted (see SortAdjacency).
func (g *Graph) HasEdge(u, v NodeID) bool {
	adj := g.OutEdges(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// Symmetrize returns the pattern of the undirected closure of g: for every
// edge (u,v) the result contains both (u,v) and (v,u), with duplicates
// removed and self-loops dropped. The result carries no weights, since no
// consumer of a closure reads one. Adjacency lists of the result are sorted.
//
// When g has in-edges and every out- and in-edge list is sorted (prepared
// inputs and registry snapshots qualify), the closure of u is a two-way
// merge of OutEdges(u) and InEdges(u), built in two passes into exactly
// sized arrays. Otherwise it goes through a Builder, with a sort per row.
// Both give the same arrays.
func (g *Graph) Symmetrize() *Graph {
	if !g.mergeable() {
		return g.symmetrizeBuild()
	}
	n := g.NumNodes
	rowPtr := make([]uint64, n+1)
	for u := uint32(0); u < n; u++ {
		rowPtr[u+1] = rowPtr[u] + uint64(g.symRow(u, nil))
	}
	out := &Graph{NumNodes: n, RowPtr: rowPtr, ColIdx: make([]uint32, rowPtr[n])}
	for u := uint32(0); u < n; u++ {
		g.symRow(u, out.ColIdx[rowPtr[u]:rowPtr[u+1]])
	}
	return out
}

// mergeable reports whether Symmetrize may merge each node's sorted out-
// and in-edge lists: in-edges are built and every list is sorted.
func (g *Graph) mergeable() bool {
	if !g.HasIn() {
		return false
	}
	for u := uint32(0); u < g.NumNodes; u++ {
		if !isSorted(g.OutEdges(u)) || !isSorted(g.InEdges(u)) {
			return false
		}
	}
	return true
}

// symRow merges u's sorted out- and in-edge lists into u's closure row,
// dropping u itself and parallel edges, and returns its length. With col
// nil it only counts; otherwise it fills col.
func (g *Graph) symRow(u uint32, col []uint32) int {
	const none = math.MaxUint32 // above every node ID
	outs, ins := g.OutEdges(u), g.InEdges(u)
	k, a, b := 0, 0, 0
	last := uint32(none)
	for a < len(outs) || b < len(ins) {
		x, y := uint32(none), uint32(none)
		if a < len(outs) {
			x = outs[a]
		}
		if b < len(ins) {
			y = ins[b]
		}
		v := min(x, y)
		// Which list holds v is unpredictable, so both advance by
		// conditional moves rather than branches (EXPERIMENTS.md).
		da, db := 0, 0
		if x == v {
			da = 1
		}
		if y == v {
			db = 1
		}
		a += da
		b += db
		if v != u && v != last {
			if col != nil {
				col[k] = v
			}
			k++
			last = v
		}
	}
	return k
}

// symmetrizeBuild is Symmetrize through a Builder: every non-loop edge is
// added in both directions, then rows are sorted and deduplicated.
func (g *Graph) symmetrizeBuild() *Graph {
	b := NewBuilder(g.NumNodes, false)
	b.Reserve(2 * int(g.NumEdges()))
	for u := uint32(0); u < g.NumNodes; u++ {
		for _, v := range g.OutEdges(u) {
			if v != u {
				b.AddEdge(u, v, 0)
				b.AddEdge(v, u, 0)
			}
		}
	}
	return b.BuildDedup(MinWeight)
}

// AliasIn makes g's in-edge storage its out-edge storage. It is valid only
// for a symmetric graph with sorted adjacency, whose CSC equals its CSR
// array for array (a Symmetrize result is one), and saves BuildIn's copy.
// SizeBytes counts the shared arrays once.
func (g *Graph) AliasIn() {
	g.InRowPtr, g.InColIdx, g.InWt = g.RowPtr, g.ColIdx, g.Wt
}

// DegreeOrder returns a permutation perm such that perm[old] = new, ordering
// vertices by decreasing out-degree (ties by ID). Used by triangle-listing
// algorithms that relabel the graph so that low-rank vertices have high
// degree.
func (g *Graph) DegreeOrder() []uint32 {
	n := int(g.NumNodes)
	byDeg := make([]uint32, n)
	for i := range byDeg {
		byDeg[i] = uint32(i)
	}
	sort.Slice(byDeg, func(i, j int) bool {
		di, dj := g.OutDegree(byDeg[i]), g.OutDegree(byDeg[j])
		if di != dj {
			return di > dj
		}
		return byDeg[i] < byDeg[j]
	})
	perm := make([]uint32, n)
	for newID, old := range byDeg {
		perm[old] = uint32(newID)
	}
	return perm
}

// Relabel returns a new graph with vertex u renamed perm[u]. perm must be a
// permutation of [0, NumNodes).
func (g *Graph) Relabel(perm []uint32) *Graph {
	b := NewBuilder(g.NumNodes, g.Wt != nil)
	for u := uint32(0); u < g.NumNodes; u++ {
		lo, hi := g.RowPtr[u], g.RowPtr[u+1]
		for e := lo; e < hi; e++ {
			w := uint32(0)
			if g.Wt != nil {
				w = g.Wt[e]
			}
			b.AddEdge(perm[u], perm[g.ColIdx[e]], w)
		}
	}
	return b.Build()
}

// LowerTriangular returns the subgraph keeping only edges (u,v) with v < u.
// On a symmetric graph relabeled by decreasing degree this is the "L" matrix
// used by SandiaDot triangle counting.
func (g *Graph) LowerTriangular() *Graph {
	return g.filterEdges(func(u, v uint32) bool { return v < u })
}

// UpperTriangular returns the subgraph keeping only edges (u,v) with v > u.
func (g *Graph) UpperTriangular() *Graph {
	return g.filterEdges(func(u, v uint32) bool { return v > u })
}

func (g *Graph) filterEdges(keep func(u, v uint32) bool) *Graph {
	b := NewBuilder(g.NumNodes, g.Wt != nil)
	for u := uint32(0); u < g.NumNodes; u++ {
		lo, hi := g.RowPtr[u], g.RowPtr[u+1]
		for e := lo; e < hi; e++ {
			v := g.ColIdx[e]
			if !keep(u, v) {
				continue
			}
			w := uint32(0)
			if g.Wt != nil {
				w = g.Wt[e]
			}
			b.AddEdge(u, v, w)
		}
	}
	return b.Build()
}

// ApproxDiameter estimates the graph diameter with a double-sweep BFS over
// the undirected closure: BFS from start, then BFS again from the farthest
// vertex found, reporting the eccentricity of the second sweep. This matches
// the "Approx. Diam." row of Table I.
func (g *Graph) ApproxDiameter() uint32 {
	if g.NumNodes == 0 {
		return 0
	}
	g.BuildIn()
	far, _ := g.bfsFarthest(0)
	_, d := g.bfsFarthest(far)
	return d
}

// bfsFarthest runs an undirected BFS (out- plus in-edges) from src and
// returns the farthest reached vertex and its distance.
func (g *Graph) bfsFarthest(src NodeID) (NodeID, uint32) {
	const inf = math.MaxUint32
	dist := make([]uint32, g.NumNodes)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	queue := make([]uint32, 0, 1024)
	queue = append(queue, src)
	farNode, farDist := src, uint32(0)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		du := dist[u]
		if du > farDist {
			farDist, farNode = du, u
		}
		relax := func(v uint32) {
			if dist[v] == inf {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
		for _, v := range g.OutEdges(u) {
			relax(v)
		}
		if g.HasIn() {
			for _, v := range g.InEdges(u) {
				relax(v)
			}
		}
	}
	return farNode, farDist
}

// Stats summarizes the Table I properties of a graph.
type Stats struct {
	Name         string
	NumNodes     uint32
	NumEdges     uint64
	AvgDegree    float64
	MaxOutDegree uint64
	MaxInDegree  uint64
	ApproxDiam   uint32
	CSRSizeBytes uint64
	Weighted     bool
}

// ComputeStats gathers the Table I properties of g.
func ComputeStats(name string, g *Graph) Stats {
	return Stats{
		Name:         name,
		NumNodes:     g.NumNodes,
		NumEdges:     g.NumEdges(),
		AvgDegree:    float64(g.NumEdges()) / float64(max(1, g.NumNodes)),
		MaxOutDegree: g.MaxOutDegree(),
		MaxInDegree:  g.MaxInDegree(),
		ApproxDiam:   g.ApproxDiameter(),
		CSRSizeBytes: g.SizeBytes(),
		Weighted:     g.Weighted(),
	}
}
