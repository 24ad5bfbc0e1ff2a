package grb

import (
	"reflect"
	"testing"
	"testing/quick"

	"graphstudy/internal/gen"
)

func TestFoldMatrix(t *testing.T) {
	ctx := NewSerialContext()
	a, _ := BuildMatrix(2, 3, []int{0, 0, 1, 1}, []int{0, 1, 0, 2}, []int64{10, 20, 30, 40}, nil)
	b, _ := BuildMatrix(2, 3, []int{0, 1}, []int{1, 2}, []int64{2, 5}, nil)
	minus := func(x, y int64) int64 { return x - y }
	if err := FoldMatrix(ctx, minus, a, b); err != nil {
		t.Fatal(err)
	}
	want := map[[2]int]int64{{0, 0}: 10, {0, 1}: 18, {1, 0}: 30, {1, 2}: 35}
	if got := matrixToMap(a); !reflect.DeepEqual(got, want) {
		t.Fatalf("folded = %v, want %v", got, want)
	}
	if v, _ := b.ExtractElement(0, 1); v != 2 {
		t.Fatal("fold mutated its operand")
	}

	outside, _ := BuildMatrix(2, 3, []int{0}, []int{2}, []int64{1}, nil)
	if err := FoldMatrix(ctx, minus, a, outside); err == nil {
		t.Fatal("operand entry outside the output's pattern accepted")
	}
	if err := FoldMatrix(ctx, minus, a, build4(t)); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	withCSC := a.Dup()
	withCSC.EnsureCSC()
	if err := FoldMatrix(ctx, minus, withCSC, b); err == nil {
		t.Fatal("fold into a matrix with a CSC mirror accepted")
	}
}

// TestFoldMatrixProperty folds a random subset of a matrix's entries back
// into it and checks every position against the definition, on every
// executor.
func TestFoldMatrixProperty(t *testing.T) {
	plus := func(x, y int64) int64 { return x + y }
	f := func(sa, sel uint16) bool {
		a := randomMatrix(40, 200, uint64(sa)+1)
		b := SelectMatrix(a, func(v int64, i, j int) bool { return (i*7+j*3+int(sel))%3 != 0 })
		want := matrixToMap(a)
		for k, v := range matrixToMap(b) {
			want[k] += v
		}
		for _, ctx := range contextsUnderTest() {
			out := a.Dup()
			if err := FoldMatrix(ctx, plus, out, b); err != nil {
				return false
			}
			if out.Check() != nil || !reflect.DeepEqual(matrixToMap(out), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPatternMinus splits a random matrix by a predicate and checks that
// PatternMinus of one part's pattern returns exactly the other part.
func TestPatternMinus(t *testing.T) {
	f := func(sa, sel uint16) bool {
		a := randomMatrix(40, 200, uint64(sa)+7)
		keep := func(v int64, i, j int) bool { return (i*5+j+int(sel))%4 != 0 }
		kept := SelectMatrix(a, keep)
		want := matrixToMap(SelectMatrix(a, func(v int64, i, j int) bool { return !keep(v, i, j) }))
		for _, ctx := range contextsUnderTest() {
			d, err := PatternMinus(ctx, a, kept.Pattern())
			if err != nil || d.Check() != nil || !reflect.DeepEqual(matrixToMap(d), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	if _, err := PatternMinus(NewSerialContext(), build4(t), randomMatrix(5, 10, 1).Pattern()); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

// TestMaskedKernelChoice pins KernelAuto's masked rule on ktruss's
// shapes: S*S under S keeps the dot kernel, and the delta products, with a
// removed-edge operand much sparser than the mask, go to Gustavson. It
// also checks the flop identity ktruss prices a delta round by.
// (TestTriangleCountKeepsDot in lagraph covers tc's products.)
func TestMaskedKernelChoice(t *testing.T) {
	S := MatrixFromGraph(gen.Random(200, 1600, false, 1, 5).Symmetrize(), func(uint32) int64 { return 1 })
	if maskedSaxpy(S.Pattern(), S, S) {
		t.Fatal("S*S under S left the dot kernel")
	}
	next := SelectMatrix(S, func(_ int64, i, j int) bool { return (i+j)%10 != 0 })
	D, err := PatternMinus(NewSerialContext(), S, next.Pattern())
	if err != nil {
		t.Fatal(err)
	}
	if !maskedSaxpy(next.Pattern(), D, S) || !maskedSaxpy(next.Pattern(), next, D) {
		t.Fatal("a delta product with a sparse operand did not choose Gustavson")
	}
	if got, want := MxMFlops(next.Pattern(), D, S)+MxMFlops(next.Pattern(), next, D),
		MxMFlops(next.Pattern(), S, S)-MxMFlops(next.Pattern(), next, next); got != want {
		t.Fatalf("delta flops %d, want flops(S_old*S_old) - flops(S_new*S_new) = %d", got, want)
	}
}
