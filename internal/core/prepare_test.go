package core

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"graphstudy/internal/gen"
	"graphstudy/internal/graph"
	"graphstudy/internal/grb"
	"graphstudy/internal/trace"
)

// TestDropPreparedFreesBothCaches is the regression test for the Prepare
// leak: dropping a prepared input must remove both the prepared matrix forms
// and the gen build memo that pins the base graph, otherwise "eviction"
// frees no memory at all.
func TestDropPreparedFreesBothCaches(t *testing.T) {
	in, err := gen.ByName("rmat22")
	if err != nil {
		t.Fatal(err)
	}
	// Other tests in this package may already have prepared rmat22@test;
	// drop it first so the deltas below are deterministic.
	DropPrepared(in.Name, gen.ScaleTest)
	basePrep, baseGen := PreparedCount(), gen.CachedCount()

	p := Prepare(in, gen.ScaleTest)
	if p == nil || p.G == nil {
		t.Fatal("Prepare returned nil")
	}
	if got := PreparedCount(); got != basePrep+1 {
		t.Fatalf("PreparedCount after Prepare = %d, want %d", got, basePrep+1)
	}
	if got := gen.CachedCount(); got != baseGen+1 {
		t.Fatalf("gen.CachedCount after Prepare = %d, want %d", got, baseGen+1)
	}

	DropPrepared(in.Name, gen.ScaleTest)
	if got := PreparedCount(); got != basePrep {
		t.Fatalf("PreparedCount after DropPrepared = %d, want %d", got, basePrep)
	}
	if got := gen.CachedCount(); got != baseGen {
		t.Fatalf("gen.CachedCount after DropPrepared = %d, want %d", got, baseGen)
	}

	// A fresh Prepare after the drop must rebuild cleanly.
	p2 := Prepare(in, gen.ScaleTest)
	if p2 == nil || p2.G == nil {
		t.Fatal("Prepare after DropPrepared returned nil")
	}
	if p2.G.NumNodes != p.G.NumNodes || p2.G.NumEdges() != p.G.NumEdges() {
		t.Fatalf("rebuilt graph differs: %d/%d nodes, %d/%d edges",
			p2.G.NumNodes, p.G.NumNodes, p2.G.NumEdges(), p.G.NumEdges())
	}
	DropPrepared(in.Name, gen.ScaleTest)
}

// builtForms lists the forms p has built, in form order.
func builtForms(p *Prepared) []form {
	var out []form
	for f := form(0); f < numForms; f++ {
		if p.built[f].Load() {
			out = append(out, f)
		}
	}
	return out
}

// sortedForms copies fs into form order.
func sortedForms(fs []form) []form {
	out := append([]form(nil), fs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestPrepareBuildsNoForms: Prepare itself builds only the base graph and
// the source; every derived form waits for its first reader.
func TestPrepareBuildsNoForms(t *testing.T) {
	in, err := gen.ByName("rmat22")
	if err != nil {
		t.Fatal(err)
	}
	DropPrepared(in.Name, gen.ScaleTest)
	defer DropPrepared(in.Name, gen.ScaleTest)
	if got := builtForms(Prepare(in, gen.ScaleTest)); len(got) != 0 {
		t.Fatalf("Prepare built forms %v, want none", got)
	}
}

// TestFormsBuiltBeforeClock: preprocessing stays out of Result.Elapsed.
// For every valid (app, system, variant), a run on a cold Prepared builds
// exactly the forms formsFor lists — the ones RunCtx builds before it
// starts the clock — so no form is built inside the timed region.
// VIncremental is exempt: its fallback builds the from-scratch form inside
// the run (TestIncrementalFallbackTracesPrepare).
func TestFormsBuiltBeforeClock(t *testing.T) {
	for _, app := range Apps() {
		for _, sys := range Systems() {
			for _, v := range append([]Variant{VDefault}, Variants()...) {
				if !ValidVariant(app, sys, v) || v == VIncremental {
					continue
				}
				s := spec(app, sys, v, "rmat22")
				s.Threads = 2
				DropPrepared(s.Input.Name, s.Scale)
				res := Run(s)
				if res.Outcome != OK {
					t.Fatalf("%v/%v/%q: outcome %v (%v)", app, sys, v, res.Outcome, res.Err)
				}
				got := builtForms(Prepare(s.Input, s.Scale))
				want := sortedForms(formsFor(app, sys, v, s.Input.BigDelta))
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v/%v/%q built forms %v, formsFor lists %v", app, sys, v, got, want)
				}
			}
		}
	}
	DropPrepared("rmat22", gen.ScaleTest)
}

// TestPreparedFormsConcurrentFirstUse: goroutines racing to the first call
// of every accessor of one Prepared all get the same forms (run with -race).
func TestPreparedFormsConcurrentFirstUse(t *testing.T) {
	in, err := gen.ByName("rmat22")
	if err != nil {
		t.Fatal(err)
	}
	DropPrepared(in.Name, gen.ScaleTest)
	defer DropPrepared(in.Name, gen.ScaleTest)
	p := Prepare(in, gen.ScaleTest)
	type forms struct {
		sym, symSorted *graph.Graph
		aBool          *grb.Matrix[bool]
		aFloat         *grb.Matrix[float64]
		aW32, aSymU32  *grb.Matrix[uint32]
		aW64           *grb.Matrix[uint64]
		aSymInt        *grb.Matrix[int64]
		aSrtInt        *grb.Matrix[int64]
	}
	got := make([]forms, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Start at a different accessor per goroutine so dependent forms
			// (SymSorted and the symmetric matrices on Sym) race too.
			steps := []func(){
				func() { got[i].sym = p.Sym() },
				func() { got[i].symSorted = p.SymSorted() },
				func() { got[i].aBool = p.ABool() },
				func() { got[i].aFloat = p.AFloat() },
				func() { got[i].aW32 = p.AW32() },
				func() { got[i].aW64 = p.AW64() },
				func() { got[i].aSymU32 = p.ASymU32() },
				func() { got[i].aSymInt = p.ASymInt() },
				func() { got[i].aSrtInt = p.ASrtInt() },
			}
			for k := range steps {
				steps[(k+2*i)%len(steps)]()
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(got); i++ {
		if got[i] != got[0] {
			t.Fatalf("goroutine %d saw different forms than goroutine 0", i)
		}
	}
	if n := len(builtForms(p)); n != int(numForms) {
		t.Fatalf("%d forms built, want %d", n, numForms)
	}
	if !got[0].aBool.HasCSC() || !got[0].aFloat.HasCSC() {
		t.Fatal("ABool and AFloat must carry their CSC mirrors")
	}
}

// TestConcurrentRunsShareCSCBuild: two adaptive cc runs on one cold
// Prepared both reach the first EnsureCSC of the shared ASymU32. Under
// -race this reported a data race before the build was guarded.
func TestConcurrentRunsShareCSCBuild(t *testing.T) {
	s := spec(CC, GB, VAdaptive, "rmat22")
	s.Threads = 1
	DropPrepared(s.Input.Name, s.Scale)
	defer DropPrepared(s.Input.Name, s.Scale)
	res := make([]Result, 2)
	var wg sync.WaitGroup
	for i := range res {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i] = Run(s)
		}(i)
	}
	wg.Wait()
	for i, r := range res {
		if r.Outcome != OK {
			t.Fatalf("run %d: outcome %v (%v)", i, r.Outcome, r.Err)
		}
	}
	if res[0].Check != res[1].Check {
		t.Fatalf("concurrent runs disagree: %#x vs %#x", res[0].Check, res[1].Check)
	}
}

// TestIncrementalFallbackTracesPrepare: at an epoch whose delta deletes an
// edge, incremental bfs and cc fall back to a from-scratch run, and the
// form that run reads (left out of formsFor) is built inside the timed
// region under a delta.fallback.prepare span with NNZOut 0.
func TestIncrementalFallbackTracesPrepare(t *testing.T) {
	e0 := [][3]uint32{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 0, 1}, {0, 4, 1}}
	deleted := graph.Edge{Src: 2, Dst: 3}
	snaps := []*gen.Input{
		gen.NewExternal("forms-fallback#e0", true, func(gen.Scale) *graph.Graph {
			return graph.FromWeightedEdges(5, e0)
		}),
		gen.NewExternal("forms-fallback#e1", true, func(gen.Scale) *graph.Graph {
			var es [][3]uint32
			for _, e := range e0 {
				if e[0] != deleted.Src || e[1] != deleted.Dst {
					es = append(es, e)
				}
			}
			return graph.FromWeightedEdges(5, es)
		}),
	}
	defer func() {
		for _, in := range snaps {
			DropPrepared(in.Name, gen.ScaleTest)
		}
		ResetIncremental("forms-fallback")
	}()
	view := func(epoch uint64) *MutationView {
		return &MutationView{Base: "forms-fallback", Epoch: epoch,
			Deltas: func(from, to uint64) (adds, dels []graph.Edge, ok bool) {
				if from < 1 && to >= 1 {
					dels = []graph.Edge{deleted}
				}
				return nil, dels, true
			}}
	}
	for _, app := range []App{BFS, CC} {
		for epoch, in := range snaps {
			tr := trace.New()
			res := Run(RunSpec{App: app, System: GB, Variant: VIncremental, Input: in,
				Scale: gen.ScaleTest, Threads: 1, Trace: tr, Mutation: view(uint64(epoch))})
			if res.Outcome != OK {
				t.Fatalf("%v e%d: outcome %v (%v)", app, epoch, res.Outcome, res.Err)
			}
			if want, ok := ReferenceCheck(RunSpec{App: app, System: GB, Input: in, Scale: gen.ScaleTest}); !ok || res.Check != want {
				t.Fatalf("%v e%d: digest %#x, reference %#x", app, epoch, res.Check, want)
			}
			if res.Trace.Find(trace.CatDelta, "delta.fallback") == nil {
				t.Fatalf("%v e%d: no delta.fallback span (cold state, then a delete)", app, epoch)
			}
			sp := res.Trace.Find(trace.CatDelta, "delta.fallback.prepare")
			if sp == nil {
				t.Fatalf("%v e%d: fallback built its form without a delta.fallback.prepare span", app, epoch)
			}
			if sp.NNZOut != 0 {
				t.Fatalf("%v e%d: delta.fallback.prepare NNZOut = %d, want 0", app, epoch, sp.NNZOut)
			}
		}
	}
	p := Prepare(snaps[1], gen.ScaleTest)
	if !p.built[fABool].Load() || !p.built[fASymU32].Load() {
		t.Fatalf("fallbacks built %v, want ABool and ASymU32 among them", builtForms(p))
	}
}

// TestPreparedBytesCountsBuiltForms: PreparedBytes charges exactly the
// forms built so far (CSC mirrors included) and nothing for an input that
// is not prepared; reading it beside concurrent builds is race-free.
func TestPreparedBytesCountsBuiltForms(t *testing.T) {
	in, err := gen.ByName("road-USA-W")
	if err != nil {
		t.Fatal(err)
	}
	DropPrepared(in.Name, gen.ScaleTest)
	defer DropPrepared(in.Name, gen.ScaleTest)
	if got := PreparedBytes(in.Name, gen.ScaleTest); got != 0 {
		t.Fatalf("unprepared input charged %d bytes", got)
	}
	p := Prepare(in, gen.ScaleTest)
	if got := PreparedBytes(in.Name, gen.ScaleTest); got != 0 {
		t.Fatalf("no forms built yet, charged %d bytes", got)
	}

	var wg sync.WaitGroup
	for _, build := range []func(){func() { p.AFloat() }, func() { p.ASymU32() }, func() { p.AW32() }} {
		wg.Add(2)
		go func(build func()) { defer wg.Done(); build() }(build)
		go func() { defer wg.Done(); PreparedBytes(in.Name, gen.ScaleTest) }()
	}
	wg.Wait()

	want := p.AFloat().SizeBytes() + p.ASymU32().SizeBytes() + p.AW32().SizeBytes() + int64(p.Sym().SizeBytes())
	if !p.AFloat().HasCSC() {
		t.Fatal("AFloat should carry its CSC mirror")
	}
	if got := PreparedBytes(in.Name, gen.ScaleTest); got != want {
		t.Fatalf("PreparedBytes = %d, want %d", got, want)
	}
}
