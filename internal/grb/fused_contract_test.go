package grb

import (
	"testing"
)

// TestFusedBFSStepDistContract pins the aliasing contract of the fused BFS
// step (FusedAssignExpand): the kernel stamps levels into the caller's dist
// in place (that is the fusion) but must never convert the caller's vector
// to another representation behind its back. A dist that is not fully
// dense is declined (applied=false, so the planner runs the eager window)
// and left untouched, as is the frontier.
func TestFusedBFSStepDistContract(t *testing.T) {
	ctx := NewGaloisBLASContext(2)
	A, err := BuildMatrix(4, 4, []int{0, 1, 2}, []int{1, 2, 3}, []bool{true, true, true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	frontier := NewVector[bool](4, List)
	frontier.SetElement(0, true)

	// A sparse dist is declined and stays bit-for-bit as it was.
	dist := NewVector[int32](4, Sorted)
	dist.SetElement(0, 1)
	dist.SetElement(3, 7)
	wi, wv := dist.Entries()
	if _, applied, err := FusedAssignExpand(ctx, dist, 2, frontier, A); err != nil {
		t.Fatal(err)
	} else if applied {
		t.Fatal("FusedAssignExpand applied to a Sorted dist; the contract requires fully dense")
	}
	if dist.Rep() != Sorted {
		t.Fatalf("declined dist converted to %v; must be left untouched", dist.Rep())
	}
	gi, gv := dist.Entries()
	if len(gi) != len(wi) {
		t.Fatalf("declined dist has %d entries, had %d", len(gi), len(wi))
	}
	for k := range wi {
		if gi[k] != wi[k] || gv[k] != wv[k] {
			t.Fatalf("declined dist entry %d = (%d,%d), had (%d,%d)", k, gi[k], gv[k], wi[k], wv[k])
		}
	}
	if v, ok := frontier.ExtractElement(0); frontier.NVals() != 1 || !ok || !v {
		t.Fatalf("declined call changed the frontier (%d entries)", frontier.NVals())
	}

	// A fully dense dist is updated in place — same backing vector, same
	// rep — with the level stamped at the frontier, and the frontier is
	// replaced by the unvisited neighbors.
	dense := NewVector[int32](4, Dense)
	dense.DenseFill(0)
	if _, applied, err := FusedAssignExpand(ctx, dense, 1, frontier, A); err != nil || !applied {
		t.Fatalf("FusedAssignExpand on a dense dist: applied=%v err=%v", applied, err)
	}
	if dense.Rep() != Dense {
		t.Fatalf("dist rep changed to %v", dense.Rep())
	}
	if v, ok := dense.ExtractElement(0); !ok || v != 1 {
		t.Fatalf("dist[0] = %d,%v; want the stamped level 1", v, ok)
	}
	if frontier.NVals() != 1 {
		t.Fatalf("next frontier has %d entries, want 1", frontier.NVals())
	}
	if v, ok := frontier.ExtractElement(1); !ok || !v {
		t.Fatalf("next frontier missing vertex 1 (got %v,%v)", v, ok)
	}
}
