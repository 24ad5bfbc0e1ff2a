package grb_test

import (
	"testing"

	"graphstudy/internal/core"
	"graphstudy/internal/gen"
	"graphstudy/internal/grb"
)

// typedLoopOf names, for every GB cell of a registered app (app and
// variant), the semiring whose typed loop the cell runs, or "" where its
// kernels have none: bfs, cc and sssp use lor_land, min_second and
// min_plus, and default pagerank's VxM pushes over the freshly built
// contribution matrix, which has no CSC mirror to pull along. A new cell
// must be added here; a semiring constructor that loses its kind fails the
// test below instead of silently running the generic loop.
var typedLoopOf = map[core.App]map[core.Variant]string{
	core.BFS:    {core.VDefault: "", core.VFused: "", core.VAdaptive: "", core.VIncremental: ""},
	core.CC:     {core.VDefault: "", core.VAdaptive: "", core.VIncremental: ""},
	core.KTruss: {core.VDefault: "plus_pair"},
	core.PR: {core.VDefault: "", core.VGBRes: "plus_times", core.VFused: "plus_times",
		core.VAdaptive: "plus_times", core.VIncremental: "plus_times"},
	core.SSSP: {core.VDefault: "", core.VFused: "", core.VAdaptive: ""},
	core.TC:   {core.VDefault: "plus_pair", core.VGBSort: "plus_pair", core.VGBLL: "plus_pair"},
}

func TestAppsReachTypedLoops(t *testing.T) {
	in, err := gen.ByName("rmat22")
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range core.Apps() {
		for _, v := range append([]core.Variant{core.VDefault}, core.Variants()...) {
			if !core.ValidVariant(app, core.GB, v) {
				continue
			}
			semiring, ok := typedLoopOf[app][v]
			if !ok {
				t.Fatalf("%v/GB variant %q: no entry in typedLoopOf", app, v)
			}
			if semiring == "" {
				continue
			}
			before := grb.TypedLoopCalls(semiring)
			r := core.Run(core.RunSpec{App: app, System: core.GB, Variant: v, Input: in, Scale: gen.ScaleTest, Threads: 2})
			if r.Outcome != core.OK {
				t.Fatalf("%v/GB variant %q: outcome %v err %v", app, v, r.Outcome, r.Err)
			}
			if grb.TypedLoopCalls(semiring) == before {
				t.Errorf("%v/GB variant %q ran no %s typed loop", app, v, semiring)
			}
		}
	}
}
