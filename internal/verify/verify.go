// Package verify provides serial reference implementations of the six study
// workloads plus result comparators. Every system under test (SuiteSparse-
// and GaloisBLAS-configured LAGraph, and Lonestar) is checked against these
// in the integration tests, mirroring how the study validated outputs across
// systems (it reports a "C" correctness failure for one of them in Table II).
package verify

import (
	"container/heap"
	"fmt"
	"math"

	"graphstudy/internal/graph"
)

// Inf32 marks unreachable vertices in 32-bit level/distance arrays.
const Inf32 = math.MaxUint32

// Inf64 marks unreachable vertices in 64-bit distance arrays.
const Inf64 = math.MaxUint64

// BFSLevels returns the hop distance of every vertex from src over directed
// out-edges (source = 0, unreachable = Inf32).
func BFSLevels(g *graph.Graph, src uint32) []uint32 {
	dist := make([]uint32, g.NumNodes)
	for i := range dist {
		dist[i] = Inf32
	}
	dist[src] = 0
	queue := []uint32{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.OutEdges(u) {
			if dist[v] == Inf32 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// distHeap is the priority queue for Dijkstra.
type distHeap struct {
	node []uint32
	dist []uint64
}

func (h *distHeap) Len() int           { return len(h.node) }
func (h *distHeap) Less(i, j int) bool { return h.dist[i] < h.dist[j] }
func (h *distHeap) Swap(i, j int) {
	h.node[i], h.node[j] = h.node[j], h.node[i]
	h.dist[i], h.dist[j] = h.dist[j], h.dist[i]
}
func (h *distHeap) Push(x any) {
	p := x.([2]uint64)
	h.node = append(h.node, uint32(p[0]))
	h.dist = append(h.dist, p[1])
}
func (h *distHeap) Pop() any {
	n := len(h.node) - 1
	out := [2]uint64{uint64(h.node[n]), h.dist[n]}
	h.node = h.node[:n]
	h.dist = h.dist[:n]
	return out
}

// Dijkstra returns exact shortest-path distances from src over weighted
// out-edges (unreachable = Inf64). The graph must be weighted.
func Dijkstra(g *graph.Graph, src uint32) []uint64 {
	dist := make([]uint64, g.NumNodes)
	for i := range dist {
		dist[i] = Inf64
	}
	dist[src] = 0
	h := &distHeap{}
	heap.Push(h, [2]uint64{uint64(src), 0})
	for h.Len() > 0 {
		p := heap.Pop(h).([2]uint64)
		u, du := uint32(p[0]), p[1]
		if du > dist[u] {
			continue
		}
		adj := g.OutEdges(u)
		wts := g.OutWeights(u)
		for e, v := range adj {
			nd := du + uint64(wts[e])
			if nd < dist[v] {
				dist[v] = nd
				heap.Push(h, [2]uint64{uint64(v), nd})
			}
		}
	}
	return dist
}

// Components returns a label per vertex identifying its weakly connected
// component, computed with serial union-find over the undirected closure.
// Labels are canonical: each component is labeled by its smallest member.
func Components(g *graph.Graph) []uint32 {
	parent := make([]uint32, g.NumNodes)
	for i := range parent {
		parent[i] = uint32(i)
	}
	var find func(x uint32) uint32
	find = func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b uint32) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if ra < rb {
			parent[rb] = ra
		} else {
			parent[ra] = rb
		}
	}
	for u := uint32(0); u < g.NumNodes; u++ {
		for _, v := range g.OutEdges(u) {
			union(u, v)
		}
	}
	labels := make([]uint32, g.NumNodes)
	for u := uint32(0); u < g.NumNodes; u++ {
		labels[u] = find(u)
	}
	return labels
}

// NumComponents counts distinct labels.
func NumComponents(labels []uint32) int {
	seen := map[uint32]struct{}{}
	for _, l := range labels {
		seen[l] = struct{}{}
	}
	return len(seen)
}

// SamePartition reports whether two labelings induce the same partition of
// the vertex set (labels themselves may differ).
func SamePartition(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := map[uint32]uint32{}
	bwd := map[uint32]uint32{}
	for i := range a {
		if m, ok := fwd[a[i]]; ok {
			if m != b[i] {
				return false
			}
		} else {
			fwd[a[i]] = b[i]
		}
		if m, ok := bwd[b[i]]; ok {
			if m != a[i] {
				return false
			}
		} else {
			bwd[b[i]] = a[i]
		}
	}
	return true
}

// PageRank runs the standard power iteration with damping factor d for
// iters iterations over out-edges, handling dangling vertices by spreading
// their rank uniformly. This matches the paper's setup (pr runs for 10
// iterations rather than to convergence).
func PageRank(g *graph.Graph, d float64, iters int) []float64 {
	n := int(g.NumNodes)
	if n == 0 {
		return nil
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1.0 / float64(n)
	}
	for it := 0; it < iters; it++ {
		dangling := 0.0
		for i := range next {
			next[i] = 0
		}
		for u := 0; u < n; u++ {
			deg := g.OutDegree(uint32(u))
			if deg == 0 {
				dangling += rank[u]
				continue
			}
			share := rank[u] / float64(deg)
			for _, v := range g.OutEdges(uint32(u)) {
				next[v] += share
			}
		}
		base := (1-d)/float64(n) + d*dangling/float64(n)
		for i := range next {
			next[i] = base + d*next[i]
		}
		rank, next = next, rank
	}
	return rank
}

// PageRankResidual runs the residual formulation of pagerank for iters
// iterations, the computation of the matrix API's gb-res variant and its
// fused, adaptive, and incremental ports: the residual starts at (1-d)/n,
// and each iteration folds it into the rank, then replaces it with d times
// its push along the out-edges, scaled by the reciprocal out-degree. There
// is no dangling redistribution, so the ranks do not sum to one. The
// arithmetic follows the matrix kernels operation for operation (reciprocal
// degree times residual; in-edge contributions summed in ascending source
// order), so digests compare exactly.
func PageRankResidual(g *graph.Graph, d float64, iters int) []float64 {
	n := int(g.NumNodes)
	if n == 0 {
		return nil
	}
	rank := make([]float64, n)
	res := make([]float64, n)
	next := make([]float64, n)
	for i := range res {
		res[i] = (1 - d) / float64(n)
	}
	for it := 0; it < iters; it++ {
		for i := range next {
			next[i] = 0
		}
		for u := 0; u < n; u++ {
			rank[u] += res[u]
			deg := g.OutDegree(uint32(u))
			if deg == 0 {
				continue
			}
			share := res[u] * (1 / float64(deg))
			for _, v := range g.OutEdges(uint32(u)) {
				next[v] += share
			}
		}
		for i := range next {
			res[i] = d * next[i]
		}
	}
	return rank
}

// MaxAbsDiff returns the L-infinity distance between two float vectors.
func MaxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > m {
			m = d
		}
	}
	return m
}

// TriangleCount counts triangles in an undirected graph given with both edge
// directions present and sorted adjacency, using the merge-intersection
// node-iterator: each triangle {u,v,w} is counted once via u<v<w ordering.
func TriangleCount(g *graph.Graph) uint64 {
	var count uint64
	for u := uint32(0); u < g.NumNodes; u++ {
		adjU := g.OutEdges(u)
		for _, v := range adjU {
			if v <= u {
				continue
			}
			adjV := g.OutEdges(v)
			// Intersect neighbors w of u and v with w > v.
			count += intersectAbove(adjU, adjV, v)
		}
	}
	return count
}

// intersectAbove counts common elements of sorted slices a and b strictly
// greater than floor.
func intersectAbove(a, b []uint32, floor uint32) uint64 {
	i, j := 0, 0
	var n uint64
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			if a[i] > floor {
				n++
			}
			i++
			j++
		}
	}
	return n
}

// KCore returns the coreness of every vertex of an undirected graph (both
// edge directions present): the largest k such that the vertex survives in
// the k-core. Serial peeling.
func KCore(g *graph.Graph) []uint32 {
	n := int(g.NumNodes)
	deg := make([]int, n)
	for i := 0; i < n; i++ {
		deg[i] = int(g.OutDegree(uint32(i)))
	}
	core := make([]uint32, n)
	removed := make([]bool, n)
	for k := 0; ; k++ {
		// Peel everything of degree <= k until stable; those vertices have
		// coreness exactly k (they survived the (k)-core but not (k+1)).
		anyLeft := false
		for {
			peeled := false
			for v := 0; v < n; v++ {
				if removed[v] || deg[v] > k {
					continue
				}
				removed[v] = true
				core[v] = uint32(k)
				peeled = true
				for _, u := range g.OutEdges(uint32(v)) {
					if !removed[u] {
						deg[u]--
					}
				}
			}
			if !peeled {
				break
			}
		}
		for v := 0; v < n; v++ {
			if !removed[v] {
				anyLeft = true
				break
			}
		}
		if !anyLeft {
			return core
		}
	}
}

// CheckIndependentSet verifies that set (a vertex predicate) is an
// independent set of g and that it is maximal (every non-member has a
// member neighbor). Self-loops are ignored. Returns a descriptive error.
func CheckIndependentSet(g *graph.Graph, set []bool) error {
	if len(set) != int(g.NumNodes) {
		return fmt.Errorf("verify: set has %d entries, graph has %d vertices", len(set), g.NumNodes)
	}
	for u := uint32(0); u < g.NumNodes; u++ {
		if !set[u] {
			continue
		}
		for _, v := range g.OutEdges(u) {
			if v != u && set[v] {
				return fmt.Errorf("verify: not independent: edge (%d,%d) inside the set", u, v)
			}
		}
	}
	for u := uint32(0); u < g.NumNodes; u++ {
		if set[u] {
			continue
		}
		covered := false
		for _, v := range g.OutEdges(u) {
			if v != u && set[v] {
				covered = true
				break
			}
		}
		if !covered {
			return fmt.Errorf("verify: not maximal: vertex %d has no member neighbor", u)
		}
	}
	return nil
}

// Betweenness computes betweenness-centrality contributions from the given
// source vertices with Brandes' algorithm (unweighted, directed), serially.
// The scores are the partial sums over those sources only (no normalization),
// matching what the batched parallel implementations compute.
func Betweenness(g *graph.Graph, sources []uint32) []float64 {
	n := int(g.NumNodes)
	bc := make([]float64, n)
	sigma := make([]float64, n)
	dist := make([]int32, n)
	delta := make([]float64, n)
	order := make([]uint32, 0, n)
	for _, s := range sources {
		for i := range sigma {
			sigma[i], dist[i], delta[i] = 0, -1, 0
		}
		order = order[:0]
		sigma[s], dist[s] = 1, 0
		queue := []uint32{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			order = append(order, u)
			for _, v := range g.OutEdges(u) {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
				if dist[v] == dist[u]+1 {
					sigma[v] += sigma[u]
				}
			}
		}
		for i := len(order) - 1; i >= 0; i-- {
			u := order[i]
			for _, v := range g.OutEdges(u) {
				if dist[v] == dist[u]+1 {
					delta[u] += sigma[u] / sigma[v] * (1 + delta[v])
				}
			}
			if u != s {
				bc[u] += delta[u]
			}
		}
	}
	return bc
}

// KTrussEdges returns the number of directed edges remaining in the k-truss
// of an undirected graph (both directions present, sorted adjacency): the
// maximal subgraph where every edge is in at least k-2 triangles within the
// subgraph. Serial peeling implementation.
func KTrussEdges(g *graph.Graph, k uint32) uint64 {
	if k < 3 {
		return g.NumEdges()
	}
	alive := make(map[[2]uint32]bool, g.NumEdges())
	adj := make(map[uint32][]uint32, g.NumNodes)
	for u := uint32(0); u < g.NumNodes; u++ {
		for _, v := range g.OutEdges(u) {
			if u == v {
				continue
			}
			alive[[2]uint32{u, v}] = true
			adj[u] = append(adj[u], v)
		}
	}
	support := func(u, v uint32) uint32 {
		var s uint32
		for _, w := range adj[u] {
			if w != v && alive[[2]uint32{u, w}] && alive[[2]uint32{v, w}] {
				s++
			}
		}
		return s
	}
	for {
		var removed bool
		for e, ok := range alive {
			if !ok {
				continue
			}
			if support(e[0], e[1]) < k-2 {
				alive[e] = false
				alive[[2]uint32{e[1], e[0]}] = false
				removed = true
			}
		}
		if !removed {
			break
		}
	}
	var n uint64
	for _, ok := range alive {
		if ok {
			n++
		}
	}
	return n
}
