// Differential tests: every workload, every system, every variant, on a
// family of ~50 small adversarial graphs (random, power-law, disconnected,
// self-loops, stars, paths, degenerate singletons). The three systems must
// produce identical digests on every input — the strongest version of the
// study's cross-system validation (it found a real "C" correctness failure
// this way, Table II) — and, where a digest-exact serial reference exists,
// all of them must match it.
//
// The package is verify_test (external): core imports verify for its
// references, so an internal test package would create an import cycle.
package verify_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"graphstudy/internal/core"
	"graphstudy/internal/gen"
	"graphstudy/internal/graph"
)

// diffCase is one differential input. Graphs are deterministic (seeded) so
// failures reproduce.
type diffCase struct {
	name string
	g    *graph.Graph
}

// wgraph builds a weighted deduplicated graph from explicit edges.
func wgraph(n uint32, edges [][3]uint32) *graph.Graph {
	b := graph.NewBuilder(n, true)
	for _, e := range edges {
		b.AddEdge(e[0], e[1], e[2])
	}
	return b.BuildDedup(graph.MinWeight)
}

// er generates a directed Erdős–Rényi-style graph: m random edges over n
// vertices, optional self-loops, weights 1..255.
func er(n, m int, loops bool, seed int64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(uint32(n), true)
	for i := 0; i < m; i++ {
		u := uint32(r.Intn(n))
		v := uint32(r.Intn(n))
		if !loops && u == v {
			continue
		}
		b.AddEdge(u, v, uint32(1+r.Intn(255)))
	}
	return b.BuildDedup(graph.MinWeight)
}

// powerLaw generates a preferential-attachment graph: vertex i attaches k
// edges to earlier vertices, biased toward vertices that already have edges.
func powerLaw(n, k int, seed int64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(uint32(n), true)
	targets := []uint32{0}
	for i := 1; i < n; i++ {
		for j := 0; j < k; j++ {
			v := targets[r.Intn(len(targets))]
			if uint32(i) == v {
				continue
			}
			b.AddEdge(uint32(i), v, uint32(1+r.Intn(255)))
			targets = append(targets, uint32(i), v)
		}
	}
	return b.BuildDedup(graph.MinWeight)
}

// twoBlocks generates two disconnected ER blocks of n vertices each.
func twoBlocks(n, m int, seed int64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(uint32(2*n), true)
	for i := 0; i < m; i++ {
		base := uint32(0)
		if i%2 == 1 {
			base = uint32(n)
		}
		u := base + uint32(r.Intn(n))
		v := base + uint32(r.Intn(n))
		if u == v {
			continue
		}
		b.AddEdge(u, v, uint32(1+r.Intn(255)))
	}
	return b.BuildDedup(graph.MinWeight)
}

// diffCases is the ~50-graph family.
func diffCases() []diffCase {
	var cases []diffCase
	add := func(name string, g *graph.Graph) {
		cases = append(cases, diffCase{name: name, g: g})
	}

	// Random sparse and dense graphs across sizes and seeds.
	for i, n := range []int{8, 16, 24, 32, 48, 64, 96} {
		add(fmt.Sprintf("er-sparse-%d", n), er(n, 2*n, false, int64(100+i)))
		add(fmt.Sprintf("er-dense-%d", n), er(n, n*n/4, false, int64(200+i)))
	}
	// Self-loop-heavy random graphs.
	for i, n := range []int{8, 16, 32, 64} {
		add(fmt.Sprintf("er-loops-%d", n), er(n, 3*n, true, int64(300+i)))
	}
	// Power-law graphs at several densities.
	for i, n := range []int{16, 32, 64, 96} {
		add(fmt.Sprintf("plaw-%d-k2", n), powerLaw(n, 2, int64(400+i)))
		add(fmt.Sprintf("plaw-%d-k4", n), powerLaw(n, 4, int64(500+i)))
	}
	// Disconnected graphs: the source's component never reaches the other.
	for i, n := range []int{8, 16, 32} {
		add(fmt.Sprintf("twoblock-%d", n), twoBlocks(n, 4*n, int64(600+i)))
	}
	// Structured graphs with known shapes.
	star := func(n uint32) *graph.Graph {
		var es [][3]uint32
		for i := uint32(1); i < n; i++ {
			es = append(es, [3]uint32{0, i, i})
		}
		return wgraph(n, es)
	}
	path := func(n uint32) *graph.Graph {
		var es [][3]uint32
		for i := uint32(0); i+1 < n; i++ {
			es = append(es, [3]uint32{i, i + 1, 1 + i%7})
		}
		return wgraph(n, es)
	}
	cycle := func(n uint32) *graph.Graph {
		var es [][3]uint32
		for i := uint32(0); i < n; i++ {
			es = append(es, [3]uint32{i, (i + 1) % n, 3})
		}
		return wgraph(n, es)
	}
	complete := func(n uint32) *graph.Graph {
		var es [][3]uint32
		for i := uint32(0); i < n; i++ {
			for j := uint32(0); j < n; j++ {
				if i != j {
					es = append(es, [3]uint32{i, j, 1 + (i+j)%9})
				}
			}
		}
		return wgraph(n, es)
	}
	add("star-16", star(16))
	add("star-64", star(64))
	add("path-16", path(16))
	add("path-48", path(48))
	add("cycle-12", cycle(12))
	add("cycle-33", cycle(33))
	add("complete-8", complete(8))
	add("complete-12", complete(12))
	// Degenerate graphs.
	add("single-vertex", wgraph(1, nil))
	add("single-loop", wgraph(1, [][3]uint32{{0, 0, 5}}))
	add("edgeless-8", wgraph(8, nil))
	add("two-vertices-one-edge", wgraph(2, [][3]uint32{{0, 1, 7}}))
	add("parallel-heavy", wgraph(4, [][3]uint32{
		{0, 1, 9}, {0, 1, 3}, {1, 2, 5}, {1, 2, 5}, {2, 3, 1}, {3, 0, 2}, {0, 0, 4},
	}))
	return cases
}

// runOn wraps g as an external input and returns a spec factory plus the
// cleanup that evicts every cached form of the graph.
func runOn(t *testing.T, name string, g *graph.Graph) (func(core.App, core.System, core.Variant) core.RunSpec, func()) {
	t.Helper()
	in := gen.NewExternal(name, true, func(gen.Scale) *graph.Graph { return g })
	mk := func(app core.App, sys core.System, v core.Variant) core.RunSpec {
		return core.RunSpec{
			App: app, System: sys, Variant: v,
			Input: in, Scale: gen.ScaleTest, Threads: 2,
		}
	}
	return mk, func() { core.DropPrepared(name, gen.ScaleTest) }
}

func mustRun(t *testing.T, spec core.RunSpec) core.Result {
	t.Helper()
	r := core.Run(spec)
	if r.Outcome != core.OK {
		t.Fatalf("%s %v/%v%s: outcome %v err %v",
			spec.Input.Name, spec.App, spec.System, spec.Variant, r.Outcome, r.Err)
	}
	return r
}

// TestDifferentialEmptyGraph: the 0-vertex graph. Source-based workloads
// must reject it with a clean error (no panic) on every system; the rest
// must agree on the trivial answer.
func TestDifferentialEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0, true).BuildDedup(graph.MinWeight)
	mk, cleanup := runOn(t, "diff-empty", g)
	defer cleanup()
	for _, app := range core.Apps() {
		var ref core.Result
		for i, sys := range []core.System{core.SS, core.GB, core.LS} {
			r := core.Run(mk(app, sys, core.VDefault))
			switch app {
			case core.BFS, core.SSSP:
				if r.Outcome != core.ERR {
					t.Errorf("%v/%v on empty graph: outcome %v, want ERR", app, sys, r.Outcome)
				}
				continue
			}
			if r.Outcome != core.OK {
				t.Fatalf("%v/%v on empty graph: outcome %v err %v", app, sys, r.Outcome, r.Err)
			}
			if app == core.PR && sys == core.LS {
				continue
			}
			if i == 0 {
				ref = r
			} else if r.Check != ref.Check {
				t.Errorf("%v on empty graph: %v digest %x != %v digest %x",
					app, sys, r.Check, ref.Spec.System, ref.Check)
			}
		}
	}
}

// TestDifferentialAllSystems is the main differential sweep: on every graph
// of the family, the three systems (and every variant) must agree digest-
// for-digest on all six workloads, and match the serial reference where a
// digest-exact one exists.
func TestDifferentialAllSystems(t *testing.T) {
	cases := diffCases()
	if len(cases) < 40 {
		t.Fatalf("graph family shrank to %d cases", len(cases))
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			mk, cleanup := runOn(t, "diff-"+tc.name, tc.g)
			defer cleanup()

			for _, app := range core.Apps() {
				// Reference digest where one exists (all apps except LS pr).
				want, haveRef := core.ReferenceCheck(mk(app, core.SS, core.VDefault))

				var ref core.Result
				for i, sys := range []core.System{core.SS, core.GB, core.LS} {
					r := mustRun(t, mk(app, sys, core.VDefault))
					if app == core.PR && sys == core.LS {
						continue // residual formulation; cross-checked below
					}
					if haveRef && r.Check != want {
						t.Errorf("%v/%v: digest %x != serial reference %x (answer %q)",
							app, sys, r.Check, want, r.Value)
					}
					if i == 0 {
						ref = r
					} else if r.Check != ref.Check {
						t.Errorf("%v: %v answer %q (digest %x) != %v answer %q (digest %x)",
							app, sys, r.Value, r.Check, ref.Spec.System, ref.Value, ref.Check)
					}
				}
			}

			// Variant ladder: every variant must match its default sibling.
			ccDefault := mustRun(t, mk(core.CC, core.LS, core.VDefault))
			if sv := mustRun(t, mk(core.CC, core.LS, core.VLSSV)); sv.Check != ccDefault.Check {
				t.Errorf("cc ls-sv digest %x != ls default %x", sv.Check, ccDefault.Check)
			}
			ssspDefault := mustRun(t, mk(core.SSSP, core.LS, core.VDefault))
			if nt := mustRun(t, mk(core.SSSP, core.LS, core.VLSNoTile)); nt.Check != ssspDefault.Check {
				t.Errorf("sssp ls-notile digest %x != ls default %x", nt.Check, ssspDefault.Check)
			}
			tcDefault := mustRun(t, mk(core.TC, core.GB, core.VDefault))
			for _, v := range []core.Variant{core.VGBSort, core.VGBLL} {
				if r := mustRun(t, mk(core.TC, core.GB, v)); r.Check != tcDefault.Check {
					t.Errorf("tc %s digest %x != gb default %x", v, r.Check, tcDefault.Check)
				}
			}
			// The residual pagerank family: LS default, LS SoA, and GB's
			// residual variant implement the same computation.
			prLS := mustRun(t, mk(core.PR, core.LS, core.VDefault))
			if soa := mustRun(t, mk(core.PR, core.LS, core.VLSSoA)); soa.Check != prLS.Check {
				t.Errorf("pr ls-soa digest %x != ls default %x", soa.Check, prLS.Check)
			}
			if res := mustRun(t, mk(core.PR, core.GB, core.VGBRes)); res.Check != prLS.Check {
				t.Errorf("pr gb-res digest %x != ls default %x", res.Check, prLS.Check)
			}
		})
	}
}

// TestPageRankVariantsMatchReference runs every valid (pr, SS/GB, variant)
// cell through core.RunVerified on the whole family: the default variant
// must match the power-iteration reference, and gb-res with its fused,
// adaptive, and incremental ports the serial residual reference, digest
// for digest.
func TestPageRankVariantsMatchReference(t *testing.T) {
	for _, tc := range diffCases() {
		t.Run(tc.name, func(t *testing.T) {
			mk, cleanup := runOn(t, "prref-"+tc.name, tc.g)
			defer cleanup()
			for _, sys := range []core.System{core.SS, core.GB} {
				for _, v := range core.Variants() {
					if !core.ValidVariant(core.PR, sys, v) {
						continue
					}
					if _, ok := core.ReferenceCheck(mk(core.PR, sys, v)); !ok {
						t.Errorf("pr/%v: no serial reference", core.Label(sys, v))
					}
					if _, err := core.RunVerified(mk(core.PR, sys, v)); err != nil {
						t.Errorf("pr/%v: %v", core.Label(sys, v), err)
					}
				}
			}
		})
	}
}

// TestSymInEdgesAliasOut: on every graph of the family, the prepared
// symmetric closure's in-edges (which share its out-edge arrays) equal a
// fresh BuildIn, and PreparedBytes charges the shared arrays once.
func TestSymInEdgesAliasOut(t *testing.T) {
	for _, c := range diffCases() {
		in := gen.NewExternal("diff-sym-"+c.name, true, func(gen.Scale) *graph.Graph { return c.g })
		sym := core.Prepare(in, gen.ScaleTest).Sym()
		fresh := &graph.Graph{NumNodes: sym.NumNodes, RowPtr: sym.RowPtr, ColIdx: sym.ColIdx, Wt: sym.Wt}
		fresh.BuildIn()
		if !reflect.DeepEqual(sym.InRowPtr, fresh.InRowPtr) || !reflect.DeepEqual(sym.InColIdx, fresh.InColIdx) ||
			!reflect.DeepEqual(sym.InWt, fresh.InWt) {
			t.Errorf("%s: Sym in-edges differ from BuildIn", c.name)
		}
		distinct := int64(len(sym.RowPtr))*8 + int64(len(sym.ColIdx))*4 + int64(len(sym.Wt))*4
		if got := core.PreparedBytes(in.Name, gen.ScaleTest); got != distinct {
			t.Errorf("%s: PreparedBytes = %d, want %d (Sym's distinct arrays)", c.name, got, distinct)
		}
		core.DropPrepared(in.Name, gen.ScaleTest)
	}
}
