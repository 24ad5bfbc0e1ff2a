package core

import (
	"runtime"
	"testing"
	"time"

	"graphstudy/internal/gen"
	"graphstudy/internal/trace"
)

func spec(app App, sys System, v Variant, name string) RunSpec {
	in, err := gen.ByName(name)
	if err != nil {
		panic(err)
	}
	return RunSpec{App: app, System: sys, Variant: v, Input: in, Scale: gen.ScaleTest, Threads: 4}
}

func TestParseHelpers(t *testing.T) {
	if s, err := ParseSystem("gb"); err != nil || s != GB {
		t.Fatalf("ParseSystem: %v %v", s, err)
	}
	if _, err := ParseSystem("xx"); err == nil {
		t.Fatal("bad system accepted")
	}
	if a, err := ParseApp("SSSP"); err != nil || a != SSSP {
		t.Fatalf("ParseApp: %v %v", a, err)
	}
	if _, err := ParseApp("nope"); err == nil {
		t.Fatal("bad app accepted")
	}
	if Label(GB, VDefault) != "gb" || Label(LS, VLSSV) != "ls-sv" {
		t.Fatal("Label wrong")
	}
	if Elapsed(1234*time.Millisecond) != "1.23" {
		t.Fatalf("Elapsed format: %s", Elapsed(1234*time.Millisecond))
	}
}

func TestAllSystemsAgreeOnEveryApp(t *testing.T) {
	// The central integration test: for each workload and graph, the three
	// systems must produce identical answers (digests).
	graphs := []string{"road-USA-W", "rmat22"}
	for _, gname := range graphs {
		for _, app := range Apps() {
			var ref Result
			for i, sys := range []System{SS, GB, LS} {
				r := Run(spec(app, sys, VDefault, gname))
				if r.Outcome != OK {
					t.Fatalf("%s/%v/%v: outcome %v err %v", gname, app, sys, r.Outcome, r.Err)
				}
				if app == PR {
					// LS pagerank is residual-based; only SS and GB share the
					// exact formulation. Cross-check LS via the gb-res variant
					// in TestPRVariantsAgree instead.
					if sys == LS {
						continue
					}
				}
				if i == 0 {
					ref = r
					continue
				}
				if r.Check != ref.Check {
					t.Fatalf("%s/%v: %v answer %q (digest %x) != %v answer %q (digest %x)",
						gname, app, sys, r.Value, r.Check, ref.Spec.System, ref.Value, ref.Check)
				}
			}
		}
	}
}

func TestPRVariantsAgree(t *testing.T) {
	// gb-res implements exactly the computation ls does.
	for _, gname := range []string{"road-USA-W", "rmat22"} {
		gbres := Run(spec(PR, GB, VGBRes, gname))
		ls := Run(spec(PR, LS, VDefault, gname))
		lssoa := Run(spec(PR, LS, VLSSoA, gname))
		for _, r := range []Result{gbres, ls, lssoa} {
			if r.Outcome != OK {
				t.Fatalf("%s: %v", gname, r.Err)
			}
		}
		if gbres.Check != ls.Check || ls.Check != lssoa.Check {
			t.Fatalf("%s: residual pr variants disagree: %q %q %q", gname, gbres.Value, ls.Value, lssoa.Value)
		}
	}
}

func TestCCVariantsAgree(t *testing.T) {
	a := Run(spec(CC, LS, VDefault, "rmat22"))
	sv := Run(spec(CC, LS, VLSSV, "rmat22"))
	gb := Run(spec(CC, GB, VDefault, "rmat22"))
	if a.Check != sv.Check || sv.Check != gb.Check {
		t.Fatalf("cc variants disagree: %q %q %q", a.Value, sv.Value, gb.Value)
	}
}

func TestTCVariantsAgree(t *testing.T) {
	want := Run(spec(TC, LS, VDefault, "rmat22"))
	for _, v := range []Variant{VDefault, VGBSort, VGBLL} {
		r := Run(spec(TC, GB, v, "rmat22"))
		if r.Outcome != OK || r.Check != want.Check {
			t.Fatalf("tc %v: %q vs %q (%v)", v, r.Value, want.Value, r.Err)
		}
	}
}

func TestSSSPVariantsAgree(t *testing.T) {
	tiled := Run(spec(SSSP, LS, VDefault, "road-USA-W"))
	notile := Run(spec(SSSP, LS, VLSNoTile, "road-USA-W"))
	if tiled.Check != notile.Check {
		t.Fatalf("sssp tiling changed the answer: %q vs %q", tiled.Value, notile.Value)
	}
}

func TestEukaryaUses64Bit(t *testing.T) {
	r := Run(spec(SSSP, GB, VDefault, "eukarya"))
	if r.Outcome != OK {
		t.Fatalf("eukarya sssp: %v", r.Err)
	}
	ls := Run(spec(SSSP, LS, VDefault, "eukarya"))
	if ls.Check != r.Check {
		t.Fatalf("eukarya sssp disagrees: %q vs %q", r.Value, ls.Value)
	}
}

func TestTimeoutProducesTO(t *testing.T) {
	s := spec(SSSP, GB, VDefault, "road-USA")
	s.Timeout = time.Nanosecond
	r := Run(s)
	if r.Outcome != TO {
		t.Fatalf("outcome = %v, want TO", r.Outcome)
	}
}

func TestRunReportsAllocations(t *testing.T) {
	r := Run(spec(TC, GB, VDefault, "rmat22"))
	if r.AllocBytes == 0 {
		t.Fatal("TC on GB should allocate (materialization)")
	}
}

func TestMaterializationStory(t *testing.T) {
	// The matrix API materializes L, U', and C for tc; Lonestar keeps a
	// counter. GB must allocate substantially more than LS in the timed
	// region (study section V-A3). Result.AllocBytes reads the runtime's
	// cumulative-allocation metric, which counts a small allocation only
	// once its span leaves the P's cache, so a short run reads up to a
	// cached span per size class per P too much or too little. Here every
	// run is bracketed by runtime.ReadMemStats, which flushes those caches,
	// so the byte counts are exact; a first run of each spec builds the
	// derived forms outside the measurement.
	gbSpec := spec(TC, GB, VDefault, "rmat22")
	lsSpec := spec(TC, LS, VDefault, "rmat22")
	allocs := func(s RunSpec) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if r := Run(s); r.Outcome != OK {
			t.Fatalf("%v/%v: outcome %v (%v)", s.App, s.System, r.Outcome, r.Err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	allocs(gbSpec)
	allocs(lsSpec)
	gb, ls := allocs(gbSpec), allocs(lsSpec)
	t.Logf("allocated in the run: GB %d B, LS %d B", gb, ls)
	if gb < 4*ls {
		t.Fatalf("GB alloc %d not clearly above LS alloc %d", gb, ls)
	}
	// The same claim in the trace's deterministic currency: GB's kernels
	// materialize bytes, Lonestar's loops none.
	bytes := func(s RunSpec) int64 {
		s.Trace = trace.New()
		return Run(s).Trace.Bytes
	}
	if gbB, lsB := bytes(gbSpec), bytes(lsSpec); gbB <= 0 || lsB != 0 {
		t.Fatalf("trace bytes materialized: GB %d (want > 0), LS %d (want 0)", gbB, lsB)
	}
}

func TestPreparedCaching(t *testing.T) {
	in, _ := gen.ByName("rmat22")
	p1 := Prepare(in, gen.ScaleTest)
	p2 := Prepare(in, gen.ScaleTest)
	if p1 != p2 {
		t.Fatal("Prepare not cached")
	}
	DropPrepared("rmat22", gen.ScaleTest)
	p3 := Prepare(in, gen.ScaleTest)
	if p3 == p1 {
		t.Fatal("DropPrepared did not evict")
	}
}

func TestRunVerified(t *testing.T) {
	for _, app := range Apps() {
		for _, sys := range []System{GB, LS} {
			s := spec(app, sys, VDefault, "rmat22")
			if _, err := RunVerified(s); err != nil {
				t.Fatalf("%v/%v: %v", app, sys, err)
			}
		}
	}
	if _, ok := ReferenceCheck(spec(PR, LS, VDefault, "rmat22")); ok {
		t.Fatal("LS pagerank should have no digest-exact reference")
	}
}
