package grb

import (
	"reflect"
	"testing"
	"testing/quick"

	"graphstudy/internal/gen"
	"graphstudy/internal/graph"
)

func contextsUnderTest() map[string]*Context {
	return map[string]*Context{
		"serial":     NewSerialContext(),
		"suitespase": NewSuiteSparseContext(4),
		"galoisblas": NewGaloisBLASContext(4),
	}
}

// pathMatrix returns the adjacency of the directed path 0->1->2->3->4 with
// weight 10 per edge.
func pathMatrix() *Matrix[uint32] {
	g := graph.FromWeightedEdges(5, [][3]uint32{{0, 1, 10}, {1, 2, 10}, {2, 3, 10}, {3, 4, 10}})
	return WeightMatrixFromGraph(g)
}

func TestAssignConstantDensify(t *testing.T) {
	ctx := NewSerialContext()
	v := NewVector[int32](70, Sorted)
	if err := AssignConstant(ctx, v, nil, nil, 0, Desc{}); err != nil {
		t.Fatal(err)
	}
	if v.Rep() != Dense || v.NVals() != 70 {
		t.Fatalf("densify failed: rep=%v nvals=%d", v.Rep(), v.NVals())
	}
}

func TestAssignConstantMasked(t *testing.T) {
	ctx := NewSerialContext()
	dist := NewVector[int32](10, Dense)
	AssignConstant(ctx, dist, nil, nil, 0, Desc{})
	frontier := NewVector[bool](10, List)
	frontier.SetElement(3, true)
	frontier.SetElement(7, true)
	if err := AssignConstant(ctx, dist, StructMask(frontier), nil, 42, Desc{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		want := int32(0)
		if i == 3 || i == 7 {
			want = 42
		}
		if got, _ := dist.ExtractElement(i); got != want {
			t.Fatalf("dist[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestAssignConstantComplementMask(t *testing.T) {
	ctx := NewSerialContext()
	v := NewVector[int32](6, Dense)
	sel := NewVector[bool](6, List)
	sel.SetElement(1, true)
	if err := AssignConstant(ctx, v, StructMask(sel).Comp(), nil, 9, Desc{}); err != nil {
		t.Fatal(err)
	}
	if v.NVals() != 5 {
		t.Fatalf("complement assign wrote %d entries, want 5", v.NVals())
	}
	if _, ok := v.ExtractElement(1); ok {
		t.Fatal("masked-out position was written")
	}
}

func TestAssignConstantAccum(t *testing.T) {
	ctx := NewSerialContext()
	v := NewVector[int32](4, Dense)
	v.SetElement(0, 5)
	sel := NewVector[bool](4, Sorted)
	sel.SetElement(0, true)
	sel.SetElement(1, true)
	mask := StructMask(sel)
	plus := func(a, b int32) int32 { return a + b }
	if err := AssignConstant(ctx, v, mask, plus, 10, Desc{}); err != nil {
		t.Fatal(err)
	}
	if got, _ := v.ExtractElement(0); got != 15 {
		t.Fatalf("accum existing = %d, want 15", got)
	}
	if got, _ := v.ExtractElement(1); got != 10 {
		t.Fatalf("accum new = %d, want 10", got)
	}
}

func TestApply(t *testing.T) {
	ctx := NewSerialContext()
	u := NewVector[int64](5, Sorted)
	u.SetElement(1, 10)
	u.SetElement(3, 30)
	w := NewVector[int64](5, Sorted)
	if err := Apply(ctx, w, nil, nil, func(x int64) int64 { return x * 2 }, u, Desc{}); err != nil {
		t.Fatal(err)
	}
	is, vs := w.Entries()
	if !reflect.DeepEqual(is, []int{1, 3}) || !reflect.DeepEqual(vs, []int64{20, 60}) {
		t.Fatalf("apply = %v %v", is, vs)
	}
}

func TestEWiseAddUnionSemantics(t *testing.T) {
	ctx := NewSerialContext()
	u := NewVector[int64](6, Sorted)
	v := NewVector[int64](6, Sorted)
	u.SetElement(0, 1)
	u.SetElement(2, 3)
	v.SetElement(2, 10)
	v.SetElement(4, 20)
	w := NewVector[int64](6, Sorted)
	min := func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	}
	if err := EWiseAdd(ctx, w, nil, nil, min, u, v, Desc{}); err != nil {
		t.Fatal(err)
	}
	is, vs := w.Entries()
	if !reflect.DeepEqual(is, []int{0, 2, 4}) || !reflect.DeepEqual(vs, []int64{1, 3, 20}) {
		t.Fatalf("ewiseadd = %v %v", is, vs)
	}
}

func TestEWiseMultIntersection(t *testing.T) {
	ctx := NewSerialContext()
	u := NewVector[int64](6, Dense)
	v := NewVector[int64](6, Sorted)
	u.SetElement(1, 2)
	u.SetElement(3, 4)
	v.SetElement(3, 10)
	v.SetElement(5, 6)
	w := NewVector[int64](6, Sorted)
	sub := func(a, b int64) int64 { return a - b }
	if err := EWiseMult(ctx, w, nil, nil, sub, u, v, Desc{}); err != nil {
		t.Fatal(err)
	}
	is, vs := w.Entries()
	if !reflect.DeepEqual(is, []int{3}) || !reflect.DeepEqual(vs, []int64{-6}) {
		t.Fatalf("ewisemult = %v %v (op order must be u,v)", is, vs)
	}
}

func TestSelectVectorAndReduce(t *testing.T) {
	ctx := NewSerialContext()
	u := NewVector[uint32](8, Dense)
	for i := 0; i < 8; i++ {
		u.SetElement(i, uint32(i))
	}
	w := NewVector[uint32](8, Sorted)
	if err := SelectVector(ctx, w, nil, func(v uint32, _, _ int) bool { return v >= 5 }, u, Desc{}); err != nil {
		t.Fatal(err)
	}
	if w.NVals() != 3 {
		t.Fatalf("select kept %d", w.NVals())
	}
	if got := ReduceVector(NewSerialContext(), PlusMonoid[uint32](), w); got != 5+6+7 {
		t.Fatalf("reduce = %d", got)
	}
	if got := ReduceVector(NewSerialContext(), MinMonoid[uint32](), w); got != 5 {
		t.Fatalf("min reduce = %d", got)
	}
}

func TestGatherScatter(t *testing.T) {
	ctx := NewSerialContext()
	// f = [1, 2, 2, 3]; gp = f[f] = [2, 2, 2, 3] (f[3]=3 self).
	f := NewVector[uint32](4, Dense)
	for i, p := range []uint32{1, 2, 2, 3} {
		f.SetElement(i, p)
	}
	gp := NewVector[uint32](4, Dense)
	if err := Gather(ctx, gp, f, f, Desc{}); err != nil {
		t.Fatal(err)
	}
	_, vs := gp.Entries()
	if !reflect.DeepEqual(vs, []uint32{2, 2, 2, 3}) {
		t.Fatalf("gather = %v", vs)
	}
	// Scatter-min: f[f[i]] = min(f[f[i]], gp[i]).
	minU32 := func(a, b uint32) uint32 {
		if a < b {
			return a
		}
		return b
	}
	vals := NewVector[uint32](4, Dense)
	for i, v := range []uint32{0, 0, 0, 0} {
		vals.SetElement(i, v)
	}
	if err := ScatterAccum(ctx, f, minU32, f, vals, Desc{}); err != nil {
		t.Fatal(err)
	}
	// Targets were f=[1,2,2,3] before being overwritten in place; the scatter
	// writes min(old, 0) = 0 progressively. All touched targets become 0.
	if got, _ := f.ExtractElement(3); got != 0 {
		t.Fatalf("scatter target 3 = %d", got)
	}
}

func TestVxMPathLevels(t *testing.T) {
	// Boolean frontier advance along the path: one step per multiply.
	A := MatrixFromGraph(pathMatrix().graphForTest(t), func(uint32) bool { return true })
	for name, ctx := range contextsUnderTest() {
		f := NewVector[bool](5, List)
		f.SetElement(0, true)
		for step := 1; step <= 4; step++ {
			w := NewVector[bool](5, List)
			if err := VxM(ctx, w, nil, nil, LorLand(), f, A, Desc{Replace: true}); err != nil {
				t.Fatal(err)
			}
			is, _ := w.Entries()
			if !reflect.DeepEqual(is, []int{step}) {
				t.Fatalf("%s step %d: frontier %v", name, step, is)
			}
			f = w
		}
	}
}

// graphForTest converts a Matrix back to a graph for adapter tests; it keeps
// the test self-contained without exporting matrix internals.
func (m *Matrix[T]) graphForTest(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(uint32(m.nrows), false)
	rows, cols, _ := m.Tuples()
	for k := range rows {
		b.AddEdge(uint32(rows[k]), uint32(cols[k]), 0)
	}
	return b.BuildDedup(graph.KeepFirst)
}

func TestVxMMinPlusRelax(t *testing.T) {
	A := pathMatrix()
	ctx := NewSerialContext()
	dist := NewVector[uint32](5, Dense)
	dist.SetElement(0, 0)
	// One relaxation from the source reaches node 1 with 10.
	w := NewVector[uint32](5, Sorted)
	if err := VxM(ctx, w, nil, nil, MinPlus[uint32](), dist, A, Desc{Replace: true}); err != nil {
		t.Fatal(err)
	}
	if got, ok := w.ExtractElement(1); !ok || got != 10 {
		t.Fatalf("relax = %d,%v", got, ok)
	}
}

func TestVxMMaskAndReplace(t *testing.T) {
	// Mask out the target so the product writes nothing, with Replace
	// clearing previous contents.
	A := pathMatrix()
	ctx := NewSerialContext()
	u := NewVector[uint32](5, Sorted)
	u.SetElement(0, 0)
	w := NewVector[uint32](5, Sorted)
	w.SetElement(4, 99) // stale entry that Replace must clear
	visited := NewVector[uint32](5, Dense)
	visited.SetElement(1, 1) // value mask: node 1 visited
	if err := VxM(ctx, w, ValueMask(visited).Comp(), nil, MinPlus[uint32](), u, A, Desc{Replace: true}); err != nil {
		t.Fatal(err)
	}
	if w.NVals() != 0 {
		is, vs := w.Entries()
		t.Fatalf("masked vxm left entries %v %v", is, vs)
	}
}

func TestMxVAgainstVxMOnSymmetric(t *testing.T) {
	// On a symmetric matrix with a commutative semiring, MxV == VxM.
	g := gen.Random(40, 300, true, 9, 77).Symmetrize()
	g.SortAdjacency()
	// The closure is a pattern; give each edge a weight that depends only
	// on its unordered endpoints, so the weighted matrix is symmetric too.
	g.Wt = make([]uint32, len(g.ColIdx))
	for u := uint32(0); u < g.NumNodes; u++ {
		for e := g.RowPtr[u]; e < g.RowPtr[u+1]; e++ {
			v := g.ColIdx[e]
			g.Wt[e] = (7*min(u, v)+13*max(u, v))%50 + 1
		}
	}
	A := WeightMatrixFromGraph(g)
	ctx := NewGaloisBLASContext(4)
	u := NewVector[uint32](int(g.NumNodes), Dense)
	for i := 0; i < int(g.NumNodes); i += 3 {
		u.SetElement(i, uint32(i))
	}
	w1 := NewVector[uint32](int(g.NumNodes), Sorted)
	w2 := NewVector[uint32](int(g.NumNodes), Sorted)
	if err := VxM(ctx, w1, nil, nil, MinPlus[uint32](), u, A, Desc{Replace: true}); err != nil {
		t.Fatal(err)
	}
	if err := MxV(ctx, w2, nil, nil, MinPlus[uint32](), A, u, Desc{Replace: true}); err != nil {
		t.Fatal(err)
	}
	i1, v1 := w1.Entries()
	i2, v2 := w2.Entries()
	if !reflect.DeepEqual(i1, i2) || !reflect.DeepEqual(v1, v2) {
		t.Fatal("MxV != VxM on symmetric matrix")
	}
}

func TestVxMPushPullAgree(t *testing.T) {
	// The same product must give identical results whether the pull (CSC)
	// or push kernel runs; force both by toggling CSC availability.
	f := func(edges []uint16, seedVals []uint8) bool {
		const n = 24
		b := graph.NewBuilder(n, true)
		for k := 0; k+1 < len(edges); k += 2 {
			b.AddEdge(uint32(edges[k])%n, uint32(edges[k+1])%n, uint32(edges[k])%50+1)
		}
		g := b.BuildDedup(graph.MinWeight)
		ctx := NewSerialContext()
		APush := WeightMatrixFromGraph(g) // no CSC: push
		APull := WeightMatrixFromGraph(g)
		APull.EnsureCSC()
		u := NewVector[uint32](n, Dense)
		for i, s := range seedVals {
			u.SetElement(int(s)%n, uint32(i))
		}
		w1 := NewVector[uint32](n, Sorted)
		w2 := NewVector[uint32](n, Sorted)
		if err := VxM(ctx, w1, nil, nil, MinPlus[uint32](), u, APush, Desc{Replace: true}); err != nil {
			return false
		}
		if err := VxM(ctx, w2, nil, nil, MinPlus[uint32](), u, APull, Desc{Replace: true}); err != nil {
			return false
		}
		i1, v1 := w1.Entries()
		i2, v2 := w2.Entries()
		return reflect.DeepEqual(i1, i2) && reflect.DeepEqual(v1, v2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestVxMAccumNoReplaceMerges(t *testing.T) {
	A := pathMatrix()
	ctx := NewSerialContext()
	u := NewVector[uint32](5, Sorted)
	u.SetElement(0, 0)
	w := NewVector[uint32](5, Dense)
	w.SetElement(1, 3) // existing better distance
	min := func(a, b uint32) uint32 {
		if a < b {
			return a
		}
		return b
	}
	if err := VxM(ctx, w, nil, min, MinPlus[uint32](), u, A, Desc{}); err != nil {
		t.Fatal(err)
	}
	if got, _ := w.ExtractElement(1); got != 3 {
		t.Fatalf("accum-min kept %d, want 3", got)
	}
}

func TestDimensionErrors(t *testing.T) {
	ctx := NewSerialContext()
	A := pathMatrix()
	small := NewVector[uint32](3, Dense)
	w := NewVector[uint32](5, Dense)
	if err := VxM(ctx, w, nil, nil, MinPlus[uint32](), small, A, Desc{}); err == nil {
		t.Fatal("VxM accepted wrong u dimension")
	}
	if err := MxV(ctx, small, nil, nil, MinPlus[uint32](), A, w, Desc{}); err == nil {
		t.Fatal("MxV accepted wrong w dimension")
	}
	if err := Apply(ctx, small, nil, nil, func(x uint32) uint32 { return x }, w, Desc{}); err == nil {
		t.Fatal("Apply accepted mismatched dims")
	}
}
