package store

import (
	"fmt"
	"sync"
	"testing"

	"graphstudy/internal/core"
	"graphstudy/internal/gen"
	"graphstudy/internal/graph"
	"graphstudy/internal/grb"
)

// cleanSuiteCaches drops the package-global gen/core cache entries the
// registry tests touch, so counts are deterministic regardless of ordering.
func cleanSuiteCaches(names ...string) {
	for _, n := range names {
		core.DropPrepared(n, gen.ScaleTest)
		gen.DropCached(n, gen.ScaleTest)
	}
}

// TestAcquireReleaseEvictDropsBothCaches is the satellite regression test:
// after acquire -> prepare -> release, a budget eviction must empty both the
// gen build memo and the core prepared-forms cache.
func TestAcquireReleaseEvictDropsBothCaches(t *testing.T) {
	cleanSuiteCaches("rmat22")
	defer cleanSuiteCaches("rmat22")
	baseGen, basePrep := gen.CachedCount(), core.PreparedCount()

	reg := NewRegistry(RegistryConfig{Budget: 1}) // anything resident is over budget
	h, err := reg.Acquire("rmat22", gen.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gen.ByName("rmat22")
	if err != nil {
		t.Fatal(err)
	}
	p := core.Prepare(in, gen.ScaleTest)
	if p.G != h.Graph() {
		t.Fatal("Prepare built a different graph than the registry holds")
	}
	if gen.CachedCount() != baseGen+1 || core.PreparedCount() != basePrep+1 {
		t.Fatalf("caches not populated: gen=%d prep=%d", gen.CachedCount(), core.PreparedCount())
	}
	// While the handle is live the graph must survive the budget.
	if st := reg.Stats(); st.ResidentGraphs != 1 || st.Evictions != 0 {
		t.Fatalf("evicted a referenced graph: %+v", st)
	}

	h.Release()
	st := reg.Stats()
	if st.ResidentGraphs != 0 || st.ResidentBytes != 0 || st.Evictions != 1 {
		t.Fatalf("release did not evict: %+v", st)
	}
	if gen.CachedCount() != baseGen || core.PreparedCount() != basePrep {
		t.Fatalf("eviction leaked caches: gen=%d (want %d) prep=%d (want %d)",
			gen.CachedCount(), baseGen, core.PreparedCount(), basePrep)
	}
	h.Release() // idempotent
}

// TestRegistryPersistsAndHitsDisk checks the store round: a first acquire
// generates and persists, a fresh registry (a "new process") loads the same
// graph from disk without regenerating.
func TestRegistryPersistsAndHitsDisk(t *testing.T) {
	cleanSuiteCaches("road-USA-W")
	defer cleanSuiteCaches("road-USA-W")
	st := openTestStore(t)

	reg1 := NewRegistry(RegistryConfig{Store: st})
	h1, err := reg1.Acquire("road-USA-W", gen.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if s := reg1.Stats(); s.Misses != 1 || s.DiskHits != 0 {
		t.Fatalf("first acquire should generate: %+v", s)
	}
	if !st.Has("road-USA-W@test") {
		t.Fatal("generated graph was not persisted")
	}
	if err := st.Verify("road-USA-W@test"); err != nil {
		t.Fatalf("persisted graph fails verify: %v", err)
	}
	want := h1.Graph()
	h1.Release()

	// Same registry, resident: a hit.
	h2, err := reg1.Acquire("road-USA-W", gen.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if s := reg1.Stats(); s.Hits != 1 {
		t.Fatalf("resident acquire should hit: %+v", s)
	}
	h2.Release()

	// Fresh registry over the same store: a disk hit, no regeneration.
	cleanSuiteCaches("road-USA-W")
	reg2 := NewRegistry(RegistryConfig{Store: st})
	h3, err := reg2.Acquire("road-USA-W", gen.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	defer h3.Release()
	if s := reg2.Stats(); s.DiskHits != 1 || s.Misses != 0 {
		t.Fatalf("second-process acquire should hit disk: %+v", s)
	}
	g := h3.Graph()
	if g.NumNodes != want.NumNodes || g.NumEdges() != want.NumEdges() || !g.HasIn() {
		t.Fatal("disk-loaded graph differs from generated one")
	}
	// The disk-loaded graph must be seeded into the gen memo so Prepare
	// reuses it rather than regenerating.
	in, _ := gen.ByName("road-USA-W")
	if in.Build(gen.ScaleTest) != g {
		t.Fatal("disk-loaded graph not seeded into the gen build memo")
	}
}

// TestRegistryExternalDataset serves an imported (non-suite) dataset through
// the same Acquire/Input path the suite uses.
func TestRegistryExternalDataset(t *testing.T) {
	defer cleanSuiteCaches("ringtest")
	st := openTestStore(t)
	ext := graph.FromWeightedEdges(64, ringEdges(64))
	if _, err := st.Put("ringtest", ext, nil); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(RegistryConfig{Store: st})

	in, err := reg.Input("ringtest")
	if err != nil {
		t.Fatal(err)
	}
	if in.Name != "ringtest" || !in.Weighted {
		t.Fatalf("external input: %+v", in)
	}
	in2, err := reg.Input("ringtest")
	if err != nil || in2 != in {
		t.Fatal("external inputs must be memoized")
	}

	h, err := reg.Acquire("ringtest", gen.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if s := reg.Stats(); s.DiskHits != 1 {
		t.Fatalf("external acquire should be a disk hit: %+v", s)
	}
	g := h.Graph()
	if g.NumNodes != 64 || !g.HasIn() {
		t.Fatal("external graph not fully prepared (CSC missing)")
	}
	// core.Prepare must reuse the registry's graph object.
	p := core.Prepare(in, gen.ScaleTest)
	if p.G != g {
		t.Fatal("Prepare regenerated an external dataset")
	}

	if _, err := reg.Acquire("no-such-dataset", gen.ScaleTest); err == nil {
		t.Fatal("acquiring an unknown name must error")
	}
	if _, err := reg.Input("no-such-dataset"); err == nil {
		t.Fatal("resolving an unknown name must error")
	}
}

func ringEdges(n uint32) [][3]uint32 {
	out := make([][3]uint32, 0, n)
	for i := uint32(0); i < n; i++ {
		out = append(out, [3]uint32{i, (i + 1) % n, i%9 + 1})
	}
	return out
}

// TestRegistryBudgetEvictsLRU loads several external datasets under a budget
// that fits only some of them and checks the least recently used idle graphs
// go first.
func TestRegistryBudgetEvictsLRU(t *testing.T) {
	st := openTestStore(t)
	var perGraph int64
	names := []string{"g0", "g1", "g2", "g3"}
	for _, name := range names {
		g := graph.FromWeightedEdges(128, ringEdges(128))
		if _, err := st.Put(name, g, nil); err != nil {
			t.Fatal(err)
		}
		g.BuildIn()
		perGraph = int64(g.SizeBytes())
	}
	defer cleanSuiteCaches(names...)

	// Room for two graphs, not three.
	reg := NewRegistry(RegistryConfig{Store: st, Budget: 2*perGraph + perGraph/2})
	for _, name := range names {
		h, err := reg.Acquire(name, gen.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	s := reg.Stats()
	if s.ResidentGraphs != 2 || s.Evictions != 2 {
		t.Fatalf("want 2 resident / 2 evicted, got %+v", s)
	}
	if s.ResidentBytes > reg.Budget() {
		t.Fatalf("resident bytes %d over budget %d", s.ResidentBytes, reg.Budget())
	}
	// The survivors must be the most recently used: g2 and g3.
	resident := map[string]bool{}
	for _, d := range reg.Datasets() {
		if d.Resident {
			resident[d.Name] = true
		}
	}
	if !resident["g2"] || !resident["g3"] {
		t.Fatalf("LRU order violated; resident: %v", resident)
	}
}

// TestRegistryConcurrentAcquireReleaseEvict hammers one registry from many
// goroutines with a budget small enough to force constant eviction; run
// under -race this is the registry's thread-safety test.
func TestRegistryConcurrentAcquireReleaseEvict(t *testing.T) {
	st := openTestStore(t)
	names := make([]string, 6)
	for i := range names {
		names[i] = fmt.Sprintf("conc%d", i)
		g := graph.FromWeightedEdges(96, ringEdges(96))
		if _, err := st.Put(names[i], g, nil); err != nil {
			t.Fatal(err)
		}
	}
	defer cleanSuiteCaches(names...)

	reg := NewRegistry(RegistryConfig{Store: st, Budget: 4096}) // forces eviction constantly
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				name := names[(seed+i)%len(names)]
				h, err := reg.Acquire(name, gen.ScaleTest)
				if err != nil {
					t.Errorf("Acquire(%s): %v", name, err)
					return
				}
				if h.Graph().NumNodes != 96 {
					t.Errorf("Acquire(%s): wrong graph", name)
				}
				h.Release()
			}
		}(w)
	}
	wg.Wait()
	// All handles released: the budget must hold now.
	if s := reg.Stats(); s.ResidentBytes > 4096 && s.ResidentGraphs > 0 {
		t.Fatalf("idle registry over budget: %+v", s)
	}
}

// TestRegistryBudgetChargesPreparedForms: a released lease re-charges its
// entry as the graph plus the prepared forms runs built for it. The budget
// fits every snapshot's CSR but not the CSRs plus one snapshot's AFloat
// (with its CSC mirror), so building that form and releasing must evict
// the least recently used snapshot and bring residency back under budget.
func TestRegistryBudgetChargesPreparedForms(t *testing.T) {
	st := openTestStore(t)
	putDeltaBase(t, st, "bud")
	s1, s2 := SnapshotName("bud", 1), SnapshotName("bud", 2)
	names := []string{"bud", s1, s2}
	snapCleanup(names...)
	defer snapCleanup(names...)
	if _, err := st.AppendDelta("bud", []DeltaOp{{Src: 1, Dst: 4, W: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendDelta("bud", []DeltaOp{{Src: 5, Dst: 1, W: 3}}); err != nil {
		t.Fatal(err)
	}
	csr := func(epoch uint64) int64 {
		g, err := st.Snapshot("bud", epoch)
		if err != nil {
			t.Fatal(err)
		}
		g.SortAdjacency()
		g.BuildIn()
		return int64(g.SizeBytes())
	}
	g2, err := st.Snapshot("bud", 2)
	if err != nil {
		t.Fatal(err)
	}
	g2.SortAdjacency()
	aFloat := grb.FloatMatrixFromGraph(g2)
	aFloat.EnsureCSC()
	base, c1, c2, f2 := csr(0), csr(1), csr(2), aFloat.SizeBytes()
	reg := NewRegistry(RegistryConfig{Store: st, Budget: base + c1 + c2 + f2 - 1})

	for _, name := range []string{s1, s2} {
		h, err := reg.Acquire(name, gen.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	if s := reg.Stats(); s.ResidentGraphs != 3 || s.ResidentBytes != base+c1+c2 || s.Evictions != 0 {
		t.Fatalf("CSRs alone should all fit: %+v (base %d, csr %d+%d)", s, base, c1, c2)
	}

	h, err := reg.Acquire(s2, gen.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	in, err := reg.Input(s2)
	if err != nil {
		t.Fatal(err)
	}
	if got := core.Prepare(in, gen.ScaleTest).AFloat().SizeBytes(); got != f2 {
		t.Fatalf("AFloat of the leased snapshot is %d bytes, want %d", got, f2)
	}
	h.Release()

	s := reg.Stats()
	if s.ResidentBytes > reg.Budget() {
		t.Fatalf("resident bytes %d over budget %d", s.ResidentBytes, reg.Budget())
	}
	if s.Evictions != 1 || s.ResidentBytes != base+c2+f2 {
		t.Fatalf("want the older snapshot evicted and %d bytes resident: %+v", base+c2+f2, s)
	}
	resident := map[string]bool{}
	for _, d := range reg.Datasets() {
		resident[d.Name] = d.Resident
	}
	if resident[s1] || !resident[s2] {
		t.Fatalf("LRU order violated; resident: %v", resident)
	}
}

// TestRegistryConcurrentFormBuildsAndReleases builds prepared forms from
// many goroutines while others release leases (which read the forms' sizes)
// under a budget that forces eviction; run under -race this checks the
// form accounting is race-free.
func TestRegistryConcurrentFormBuildsAndReleases(t *testing.T) {
	st := openTestStore(t)
	names := make([]string, 4)
	for i := range names {
		names[i] = fmt.Sprintf("forms%d", i)
		if _, err := st.Put(names[i], graph.FromWeightedEdges(96, ringEdges(96)), nil); err != nil {
			t.Fatal(err)
		}
	}
	defer cleanSuiteCaches(names...)

	reg := NewRegistry(RegistryConfig{Store: st, Budget: 8192})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				name := names[(seed+i)%len(names)]
				h, err := reg.Acquire(name, gen.ScaleTest)
				if err != nil {
					t.Errorf("Acquire(%s): %v", name, err)
					return
				}
				in, err := reg.Input(name)
				if err != nil {
					t.Errorf("Input(%s): %v", name, err)
					h.Release()
					return
				}
				p := core.Prepare(in, gen.ScaleTest)
				switch (seed + i) % 3 {
				case 0:
					p.AFloat()
				case 1:
					p.ABool()
				default:
					p.ASymU32()
				}
				h.Release()
				reg.Stats()
			}
		}(w)
	}
	wg.Wait()
	if s := reg.Stats(); s.ResidentBytes > reg.Budget() {
		t.Fatalf("idle registry over budget: %+v", s)
	}
}
