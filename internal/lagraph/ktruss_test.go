package lagraph

import (
	"fmt"
	"strings"
	"testing"

	"graphstudy/internal/gen"
	"graphstudy/internal/graph"
	"graphstudy/internal/grb"
	"graphstudy/internal/trace"
)

// ktrussFull is the k-truss loop that recomputes every support each round,
// C<S> = S*S by one masked SpGEMM: the formulation KTruss replaced, kept
// as the oracle its delta rounds are checked against.
func ktrussFull(ctx *grb.Context, A *grb.Matrix[int64], k uint32, onRound func(round int, S, C *grb.Matrix[int64])) (KTrussResult, error) {
	if k < 3 {
		return KTrussResult{Edges: A.NVals(), Truss: A}, nil
	}
	S := A
	for rounds := 1; ; rounds++ {
		C, err := grb.MxM(ctx, S.Pattern(), grb.PlusPair[int64](), S, S)
		if err != nil {
			return KTrussResult{Rounds: rounds}, err
		}
		if onRound != nil {
			onRound(rounds, S, C)
		}
		next := grb.SelectMatrix(C, func(v int64, _, _ int) bool { return v >= int64(k-2) })
		if next.NVals() == S.NVals() {
			return KTrussResult{Edges: next.NVals(), Rounds: rounds, Truss: next}, nil
		}
		S = next
	}
}

// ktrussRound is one round as the hook saw it: the round's pattern and
// its nonzero supports. A dot-product C omits edges of support zero and
// the delta form keeps them as explicit zeros, so only nonzero supports
// are compared.
type ktrussRound struct {
	pattern  string
	supports map[[2]int]int64
}

func recordRounds(rounds *[]ktrussRound) func(int, *grb.Matrix[int64], *grb.Matrix[int64]) {
	return func(_ int, S, C *grb.Matrix[int64]) {
		r := ktrussRound{supports: map[[2]int]int64{}}
		is, js, _ := S.Tuples()
		r.pattern = fmt.Sprint(is, js)
		is, js, vs := C.Tuples()
		for x, v := range vs {
			if v != 0 {
				r.supports[[2]int{is[x], js[x]}] = v
			}
		}
		*rounds = append(*rounds, r)
	}
}

// checkKTrussDelta runs KTruss and the full recompute on A and fails on
// any difference: rounds, every round's pattern and supports, and the
// final Truss entry for entry. It reports how many rounds ran in the
// delta form (the hook's C is S itself).
func checkKTrussDelta(t *testing.T, name string, ctx *grb.Context, A *grb.Matrix[int64], k uint32) int {
	t.Helper()
	var got, want []ktrussRound
	deltas := 0
	record := recordRounds(&got)
	res, err := ktruss(ctx, A, k, func(r int, S, C *grb.Matrix[int64]) {
		if C == S {
			deltas++
		}
		record(r, S, C)
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ref, err := ktrussFull(ctx, A, k, recordRounds(&want))
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	if res.Rounds != ref.Rounds || res.Edges != ref.Edges {
		t.Fatalf("%s: rounds/edges = %d/%d, full recompute %d/%d", name, res.Rounds, res.Edges, ref.Rounds, ref.Edges)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: hook saw %d rounds, full recompute %d", name, len(got), len(want))
	}
	for r := range got {
		if got[r].pattern != want[r].pattern {
			t.Fatalf("%s: round %d pattern differs", name, r+1)
		}
		if len(got[r].supports) != len(want[r].supports) {
			t.Fatalf("%s: round %d: %d nonzero supports, full recompute %d", name, r+1, len(got[r].supports), len(want[r].supports))
		}
		for e, v := range want[r].supports {
			if got[r].supports[e] != v {
				t.Fatalf("%s: round %d support%v = %d, full recompute %d", name, r+1, e, got[r].supports[e], v)
			}
		}
	}
	gi, gj, gv := res.Truss.Tuples()
	wi, wj, wv := ref.Truss.Tuples()
	if fmt.Sprint(gi, gj, gv) != fmt.Sprint(wi, wj, wv) {
		t.Fatalf("%s: final Truss differs from the full recompute", name)
	}
	if err := res.Truss.Check(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return deltas
}

// ktrussInputs are the differential test's graphs, symmetrized: an RMAT
// graph (the perfbench shape, smaller), a road grid (no triangles, so the
// first round drops every edge), a clique with a pendant tree (edges of
// support zero beside a dense core), and verify's peeling cascade (a
// triangle with a pendant edge).
func ktrussInputs() map[string]*grb.Matrix[int64] {
	clique := [][2]uint32{}
	for i := uint32(0); i < 7; i++ {
		for j := i + 1; j < 7; j++ {
			clique = append(clique, [2]uint32{i, j})
		}
	}
	// The tree hangs off clique vertex 6: 6-7, 7-8, 7-9, 9-10, 9-11.
	clique = append(clique, [][2]uint32{{6, 7}, {7, 8}, {7, 9}, {9, 10}, {9, 11}}...)
	graphs := map[string]*graph.Graph{
		"rmat":    gen.RMAT(8, 16, 0.57, 0.19, 0.19, false, 1, 7),
		"road":    gen.Grid(12, 12, 2, false, 1, 3),
		"clique":  graph.FromEdges(12, clique),
		"cascade": graph.FromEdges(4, [][2]uint32{{0, 1}, {1, 2}, {0, 2}, {2, 3}}),
	}
	out := map[string]*grb.Matrix[int64]{}
	for name, g := range graphs {
		out[name] = grb.MatrixFromGraph(g.Symmetrize(), func(uint32) int64 { return 1 })
	}
	return out
}

func TestKTrussDeltaMatchesFullRecompute(t *testing.T) {
	contexts := map[string]func() *grb.Context{
		"serial":   grb.NewSerialContext,
		"static-2": func() *grb.Context { return grb.NewSuiteSparseContext(2) },
		"steal-4":  func() *grb.Context { return grb.NewGaloisBLASContext(4) },
	}
	deltas := 0
	for gname, A := range ktrussInputs() {
		for cname, mk := range contexts {
			for k := uint32(3); k <= 8; k++ {
				deltas += checkKTrussDelta(t, fmt.Sprintf("%s/%s/k=%d", gname, cname, k), mk(), A, k)
			}
		}
	}
	// The comparison means nothing unless some rounds took the delta form.
	if deltas == 0 {
		t.Fatal("no round ran in the delta form")
	}
	t.Logf("%d delta rounds", deltas)
}

// TestKTrussDeltaKernels pins the kernels of the delta rounds: the first
// round is the masked dot product, and a delta round runs Gustavson twice
// and no dot product, so it needs no CSC mirror.
func TestKTrussDeltaKernels(t *testing.T) {
	A := ktrussInputs()["rmat"]
	tr := trace.New()
	trace.Install(tr)
	res, err := KTruss(grb.NewSerialContext(), A, 5)
	trace.Install(nil)
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]int64{}
	for _, st := range tr.Summary().Ops {
		ops[st.Op] = st.Count
	}
	if ops["grb.MxM.dot"] != 1 {
		t.Errorf("grb.MxM.dot ran %d times, want once (the first round)", ops["grb.MxM.dot"])
	}
	if g := ops["grb.MxM.gustavson"]; g == 0 || g != ops["grb.FoldMatrix"] || g != 2*ops["grb.PatternMinus"] {
		t.Errorf("delta rounds ran %d Gustavson products, %d folds, %d PatternMinus; want two products and two folds per PatternMinus",
			g, ops["grb.FoldMatrix"], ops["grb.PatternMinus"])
	}
	if res.Rounds != int(ops["grb.PatternMinus"])+1 {
		t.Errorf("%d rounds, %d delta rounds: want every round after the first in the delta form", res.Rounds, ops["grb.PatternMinus"])
	}
}

// TestTriangleCountKeepsDot checks that the masked-kernel rule leaves
// every tc formulation on the dot kernel: their operands are as dense as
// their mask.
func TestTriangleCountKeepsDot(t *testing.T) {
	for gname, g := range testGraphs(t) {
		sym := g.Symmetrize()
		A := grb.MatrixFromGraph(sym, func(uint32) int64 { return 1 })
		for _, v := range []TCVariant{TCSandiaDot, TCSorted, TCListing} {
			tr := trace.New()
			trace.Install(tr)
			_, err := TriangleCount(grb.NewSerialContext(), A, v)
			trace.Install(nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range tr.Summary().Ops {
				if strings.HasPrefix(st.Op, "grb.MxM.") && st.Op != "grb.MxM.dot" {
					t.Errorf("%s/%v ran %s", gname, v, st.Op)
				}
			}
		}
	}
}

// FuzzKTruss checks KTruss against the full recompute on arbitrary small
// symmetric graphs: the bytes are an edge list over up to 24 vertices, the
// first byte picks k in 3..8.
func FuzzKTruss(f *testing.F) {
	f.Add([]byte{2, 0, 1, 1, 2, 0, 2, 2, 3})
	f.Add([]byte{0, 0, 1, 1, 2, 2, 0, 0, 3, 1, 3, 2, 3, 3, 4, 4, 5})
	f.Add([]byte{5, 0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 1, 3, 1, 4, 2, 3, 2, 4, 3, 4, 4, 5, 5, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		k := 3 + uint32(data[0])%6
		var edges [][2]uint32
		for x := 1; x+1 < len(data); x += 2 {
			u, v := uint32(data[x])%24, uint32(data[x+1])%24
			if u != v {
				edges = append(edges, [2]uint32{u, v})
			}
		}
		g := graph.FromEdges(24, edges).Symmetrize()
		A := grb.MatrixFromGraph(g, func(uint32) int64 { return 1 })
		checkKTrussDelta(t, fmt.Sprintf("k=%d", k), grb.NewGaloisBLASContext(2), A, k)
	})
}
