package store

import (
	"math/rand"
	"sync"
	"testing"

	"graphstudy/internal/core"
	"graphstudy/internal/gen"
	"graphstudy/internal/graph"
)

func TestSnapshotNameRoundtrip(t *testing.T) {
	for _, tc := range []struct {
		base  string
		epoch uint64
	}{
		{"road", 0}, {"web-sk", 7}, {"x", 123456789},
	} {
		name := SnapshotName(tc.base, tc.epoch)
		base, epoch, ok := ParseSnapshotName(name)
		if !ok || base != tc.base || epoch != tc.epoch {
			t.Fatalf("roundtrip(%q) = %q, %d, %v", name, base, epoch, ok)
		}
	}
	for _, bad := range []string{"road", "#e3", "road#e", "road#ex", "road#e-1", "road#e3x", ""} {
		if _, _, ok := ParseSnapshotName(bad); ok {
			t.Errorf("ParseSnapshotName(%q) = ok; want reject", bad)
		}
	}
}

// snapCleanup drops every cache a snapshot acquire may have seeded.
func snapCleanup(names ...string) {
	for _, n := range names {
		core.DropPrepared(n, gen.ScaleTest)
		gen.DropCached(n, gen.ScaleTest)
	}
}

func TestRegistrySnapshotAcquire(t *testing.T) {
	st := openTestStore(t)
	putDeltaBase(t, st, "mut")
	names := []string{"mut", SnapshotName("mut", 0), SnapshotName("mut", 1), SnapshotName("mut", 2)}
	snapCleanup(names...)
	defer snapCleanup(names...)

	if _, err := st.AppendDelta("mut", []DeltaOp{{Src: 1, Dst: 4, W: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendDelta("mut", []DeltaOp{{Src: 5, Dst: 1, W: 3}, {Del: true, Src: 0, Dst: 1}}); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(RegistryConfig{Store: st})

	// Epoch 0 shares the resident base object outright.
	bh, err := reg.Acquire("mut", gen.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	s0, err := reg.Acquire(SnapshotName("mut", 0), gen.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if s0.Graph() != bh.Graph() {
		t.Fatal("epoch-0 snapshot should share the base graph object")
	}

	s1, err := reg.Acquire(SnapshotName("mut", 1), gen.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Graph().NumEdges() != bh.Graph().NumEdges()+1 {
		t.Fatalf("epoch-1 edges = %d, want base+1", s1.Graph().NumEdges())
	}
	s2, err := reg.Acquire(SnapshotName("mut", 2), gen.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Graph().NumEdges() != bh.Graph().NumEdges()+1 { // +2 adds, -1 delete
		t.Fatalf("epoch-2 edges = %d, want base+1", s2.Graph().NumEdges())
	}
	// Snapshots match the store's own materialization exactly.
	want, err := st.Snapshot("mut", 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Graph(); got.NumNodes != want.NumNodes || got.NumEdges() != want.NumEdges() {
		t.Fatalf("registry snapshot shape %d/%d, store says %d/%d",
			got.NumNodes, got.NumEdges(), want.NumNodes, want.NumEdges())
	}

	// A second acquire of the same epoch is a resident hit.
	hits0 := reg.Stats().Hits
	s1b, err := reg.Acquire(SnapshotName("mut", 1), gen.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if s1b.Graph() != s1.Graph() || reg.Stats().Hits != hits0+1 {
		t.Fatal("re-acquired snapshot was not a resident hit")
	}

	// Unknown base and out-of-range epochs fail cleanly.
	if _, err := reg.Acquire(SnapshotName("nope", 1), gen.ScaleTest); err == nil {
		t.Fatal("snapshot of unknown base: want error")
	}
	if _, err := reg.Acquire(SnapshotName("mut", 99), gen.ScaleTest); err == nil {
		t.Fatal("snapshot past top epoch: want error")
	}

	for _, h := range []*Handle{bh, s0, s1, s1b, s2} {
		h.Release()
	}
}

// TestRegistrySnapshotFromAncestor: snapshots merged from the newest
// resident ancestor snapshot, in any acquire order, equal the rebuild of
// the base plus the whole log.
func TestRegistrySnapshotFromAncestor(t *testing.T) {
	st := openTestStore(t)
	putDeltaBase(t, st, "anc")
	base, _, err := st.Get("anc")
	if err != nil {
		t.Fatal(err)
	}
	batches := randomLineage(rand.New(rand.NewSource(3)), base, 12, 4)
	for _, b := range batches {
		if _, err := st.AppendDelta("anc", b.Ops); err != nil {
			t.Fatal(err)
		}
	}
	order := []uint64{3, 1, 2, 7, 5, 12, 11, 6}
	names := []string{"anc"}
	for _, e := range order {
		names = append(names, SnapshotName("anc", e))
	}
	snapCleanup(names...)
	defer snapCleanup(names...)
	reg := NewRegistry(RegistryConfig{Store: st})
	var held []*Handle
	defer func() {
		for _, h := range held {
			h.Release()
		}
	}()
	for i, e := range order {
		if i == 3 {
			// The newest resident ancestor below 7 is 3, and none is below 1.
			if h := reg.acquireAncestor("anc", 0, 7); h == nil || h.e.epoch != 3 {
				t.Fatalf("ancestor of epoch 7 = %v, want epoch 3", h)
			} else {
				h.Release()
			}
			if h := reg.acquireAncestor("anc", 0, 1); h != nil {
				t.Fatalf("ancestor of epoch 1 = epoch %d, want none", h.e.epoch)
			}
		}
		h, err := reg.Acquire(SnapshotName("anc", e), gen.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, h)
		want := materializeRebuild(base, batches[:e])
		want.BuildIn()
		requireSameSnapshot(t, h.Graph(), want)
	}
}

func TestRegistryAppendCompactInvalidation(t *testing.T) {
	st := openTestStore(t)
	putDeltaBase(t, st, "mut")
	names := []string{"mut", SnapshotName("mut", 1)}
	snapCleanup(names...)
	defer snapCleanup(names...)
	reg := NewRegistry(RegistryConfig{Store: st})

	if _, err := reg.Append("mut", []DeltaOp{{Src: 2, Dst: 5, W: 1}}); err != nil {
		t.Fatal(err)
	}
	if e, err := reg.Epoch("mut"); err != nil || e != 1 {
		t.Fatalf("epoch = %d, %v; want 1", e, err)
	}
	if _, err := reg.Append(SnapshotName("mut", 1), []DeltaOp{{Src: 0, Dst: 1}}); err == nil {
		t.Fatal("append to a snapshot name: want error")
	}

	// Hold a lease on the stale base across compaction.
	oldH, err := reg.Acquire("mut", gen.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	oldG := oldH.Graph()
	ce, err := reg.Compact("mut")
	if err != nil {
		t.Fatal(err)
	}
	if ce.BaseEpoch != 1 {
		t.Fatalf("compacted BaseEpoch = %d, want 1", ce.BaseEpoch)
	}
	// The lease still sees the pre-compaction object...
	if oldH.Graph() != oldG {
		t.Fatal("live lease changed under compaction")
	}
	// ...but a fresh acquire decodes the new base (one more edge).
	newH, err := reg.Acquire("mut", gen.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if newH.Graph() == oldG {
		t.Fatal("fresh acquire reused the stale pre-compaction graph")
	}
	if newH.Graph().NumEdges() != oldG.NumEdges()+1 {
		t.Fatalf("new base edges = %d, want %d", newH.Graph().NumEdges(), oldG.NumEdges()+1)
	}
	oldH.Release()
	newH.Release()

	// Compacting with an idle resident entry just drops it.
	if _, err := reg.Append("mut", []DeltaOp{{Src: 3, Dst: 5, W: 4}}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Compact("mut"); err != nil {
		t.Fatal(err)
	}
	h3, err := reg.Acquire("mut", gen.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if h3.Graph().NumEdges() != oldG.NumEdges()+2 {
		t.Fatalf("post-second-compaction edges = %d, want %d", h3.Graph().NumEdges(), oldG.NumEdges()+2)
	}
	h3.Release()
}

func TestRegistryMutationView(t *testing.T) {
	st := openTestStore(t)
	putDeltaBase(t, st, "mut")
	reg := NewRegistry(RegistryConfig{Store: st})
	if _, err := reg.Append("mut", []DeltaOp{
		{Src: 1, Dst: 5, W: 2},
		{Del: true, Src: 1, Dst: 5}, // add-then-delete nets to a delete
		{Src: 2, Dst: 4, W: 7},
	}); err != nil {
		t.Fatal(err)
	}
	mv := reg.MutationView("mut", 1)
	if mv == nil || mv.Base != "mut" || mv.Epoch != 1 {
		t.Fatalf("view = %+v", mv)
	}
	adds, dels, ok := mv.Deltas(0, 1)
	if !ok {
		t.Fatal("Deltas(0,1) not resolvable")
	}
	if len(adds) != 1 || adds[0] != (graph.Edge{Src: 2, Dst: 4, W: 7}) {
		t.Fatalf("adds = %v", adds)
	}
	if len(dels) != 1 || dels[0].Src != 1 || dels[0].Dst != 5 {
		t.Fatalf("dels = %v", dels)
	}
	if adds, dels, ok := mv.Deltas(1, 1); !ok || len(adds)+len(dels) != 0 {
		t.Fatalf("Deltas(1,1) = %v, %v, %v; want empty ok", adds, dels, ok)
	}
	if _, _, ok := mv.Deltas(0, 9); ok {
		t.Fatal("Deltas past the log resolved; want ok=false")
	}
}

// TestRegistrySnapshotChurnRace is the -race satellite: concurrent
// lease/release churn on base and snapshot entries, delta appends, and
// compactions, under a tiny budget so eviction constantly runs. The
// snapshot pin (loadSnapshot acquiring its base) must keep every
// materialization consistent while entries are being invalidated around it.
func TestRegistrySnapshotChurnRace(t *testing.T) {
	st := openTestStore(t)
	putDeltaBase(t, st, "mut")
	defer snapCleanup("mut")
	reg := NewRegistry(RegistryConfig{Store: st, Budget: 1}) // evict at every release

	// Pre-seed a few epochs so snapshot acquires have history to chew on.
	for i := 0; i < 3; i++ {
		if _, err := reg.Append("mut", []DeltaOp{{Src: uint32(i), Dst: uint32(5 - i), W: uint32(i + 1)}}); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				switch r.Intn(10) {
				case 0:
					_, _ = reg.Append("mut", []DeltaOp{{
						Src: uint32(r.Intn(6)), Dst: uint32(r.Intn(6)), W: uint32(1 + r.Intn(9)),
					}})
				case 1:
					_, _ = reg.Compact("mut")
				default:
					name := "mut"
					if top, err := reg.Epoch("mut"); err == nil && r.Intn(2) == 0 {
						// Epoch may be compacted away by a racing Compact by the
						// time the acquire runs; an error there is legitimate.
						name = SnapshotName("mut", top)
					}
					h, err := reg.Acquire(name, gen.ScaleTest)
					if err != nil {
						continue
					}
					if verr := h.Graph().Validate(); verr != nil {
						t.Errorf("acquired invalid graph %q: %v", name, verr)
					}
					h.Release()
					snapCleanup(name)
				}
			}
		}(int64(9000 + w))
	}
	wg.Wait()
}
