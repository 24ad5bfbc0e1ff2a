package main

import (
	"encoding/json"
	"errors"
	"os"
	"strconv"
	"testing"
	"time"

	"graphstudy/internal/core"
	"graphstudy/internal/service"
	"graphstudy/internal/trace"
)

// TestCorruptedStudyDigestFails: an op whose digest differs from the
// serial reference by one bit is counted as failed; the others are not.
func TestCorruptedStudyDigestFails(t *testing.T) {
	x := &input{spec: graphSpec{name: "g"}}
	cells := []cell{{x: x, app: core.BFS, sys: core.GB}, {x: x, app: core.TC, sys: core.SS}}
	refs := map[string]uint64{refKey(cells[0]): 0xfeed, refKey(cells[1]): 42}
	recs := []opRec{
		{cell: 0, outcome: core.OK, check: 0xfeed},
		{cell: 1, outcome: core.OK, check: 42},
		{cell: 0, outcome: core.OK, check: 0xfeed ^ 1},
		{cell: 1, outcome: core.TO, check: 42},
	}
	failed, msgs := checkStudy(cells, refs, recs)
	if failed != 2 || len(msgs) != 2 {
		t.Fatalf("failed = %d (%v), want 2: the corrupted digest and the timeout", failed, msgs)
	}
}

// TestResidualPageRankChecks: residual pagerank answers are held to the
// properties the method must have and to agreement between cells.
func TestResidualPageRankChecks(t *testing.T) {
	x := &input{spec: graphSpec{name: "g"}}
	cells := []cell{{x: x, app: core.PR, sys: core.LS}, {x: x, app: core.PR, sys: core.LS, variant: core.VLSSoA}}
	for _, c := range cells {
		if !c.residual() {
			t.Fatalf("%v/%v is not treated as residual pagerank", c.sys, c.variant)
		}
	}
	for _, tc := range []struct {
		value string
		fail  bool
	}{
		{"sum=0.617148 max=0.010061", false},
		{"sum=0.617149 max=0.010061", false}, // within rankTol
		{"sum=0.617348 max=0.010061", true},  // disagrees with the first answer
		{"sum=NaN max=0.010061", true},
		{"sum=1.500000 max=0.010061", true},
		{"sum=0.000000 max=0.000000", true},
		{"garbage", true},
	} {
		recs := []opRec{
			{cell: 0, outcome: core.OK, value: "sum=0.617148 max=0.010061"},
			{cell: 1, outcome: core.OK, value: tc.value},
		}
		if failed, _ := checkStudy(cells, nil, recs); (failed == 1) != tc.fail {
			t.Errorf("%q: failed = %d, want fail=%v", tc.value, failed, tc.fail)
		}
	}
}

// TestCorruptedServeDigestFails: a graphd response whose digest differs
// from the rebuilt snapshot's reference is counted as failed, as are HTTP
// errors and ingests that commit an unexpected epoch.
func TestCorruptedServeDigestFails(t *testing.T) {
	refs := serveRefs{hits: []uint64{7}, epochs: map[uint64][nClasses]uint64{3: {cFresh: 0xabc, cWarmPR: 0x11}}}
	run := func(class int, digest, value string) reqRec {
		return reqRec{class: class, epoch: 3, run: service.RunResponse{Outcome: "ok", Digest: digest, Value: value}}
	}
	good := []reqRec{
		run(cFresh, "abc", ""),
		run(cWarmPR, "11", "sum=0.5 max=0.01"),
		{class: cHit, hit: 0, run: service.RunResponse{Outcome: "ok", Digest: "7"}},
		{class: cIngest, epoch: 3, got: 3},
	}
	if failed, msgs := checkServe(good, refs); failed != 0 {
		t.Fatalf("good responses failed: %v", msgs)
	}
	bad := []reqRec{
		run(cFresh, strconv.FormatUint(0xabc^0x100, 16), ""),
		run(cWarmPR, "11", "sum=Inf max=0.01"),
		{class: cHit, hit: 0, run: service.RunResponse{Outcome: "ok", Digest: "8"}},
		{class: cIngest, epoch: 3, got: 4},
		{class: cHit, hit: 0, err: errors.New("HTTP 429")},
		run(cFresh, "abc", ""),
	}
	bad[5].run.Outcome = "ERR"
	if failed, _ := checkServe(bad, refs); failed != len(bad) {
		t.Fatalf("failed = %d, want %d", failed, len(bad))
	}
}

// TestAttributeTilesNestedSpans: every covered instant goes to exactly one
// layer, the deepest open span's.
func TestAttributeTilesNestedSpans(t *testing.T) {
	ms := time.Millisecond
	evs := []trace.Event{
		{Op: "lagraph.bfs.round", Cat: trace.CatRound, Round: 1, Start: 0, Dur: 10 * ms},
		{Op: "grb.VxM", Cat: trace.CatKernel, Start: 1 * ms, Dur: 6 * ms},
		{Op: "galois.ForRange.steal", Cat: trace.CatRegion, Start: 2 * ms, Dur: 3 * ms},
		{Op: "lonestar.bfs.round", Cat: trace.CatRound, Round: 1, Start: 12 * ms, Dur: 2 * ms},
	}
	a := attribute(evs)
	want := map[layer]time.Duration{lLagraph: 4 * ms, lGrb: 3 * ms, lGalois: 3 * ms, lLonestar: 2 * ms}
	for l, d := range want {
		if a.self[l] != d {
			t.Errorf("layer %d self = %v, want %v", l, a.self[l], d)
		}
	}
	if a.covered != 12*ms || a.lagraphRoundSelf != 4*ms {
		t.Errorf("covered %v, lagraph round self %v; want 12ms, 4ms", a.covered, a.lagraphRoundSelf)
	}
}

// TestBenchmarkJSONMatchesMetrics: BENCHMARK.json names exactly the
// metrics and workloads this program reports, with the same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd)
	compare("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
}
