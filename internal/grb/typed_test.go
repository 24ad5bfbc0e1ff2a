package grb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"graphstudy/internal/gen"
	"graphstudy/internal/perfmodel"
	"graphstudy/internal/trace"
)

// The typed semiring loops (typed.go) are held to the generic loop: every
// typed (semiring, type, kernel, orientation) cell must produce exactly what
// the same call produces on a copy of the semiring with the zero kind —
// values bitwise (absent slots included), presence and NVals — and make the
// same perfmodel calls and span tags. graphlint's semorder rule only sees
// .Mul calls, so operand order inside the typed loops is policed here.

// typedCells are the cells with a typed loop.
var typedCells = []string{"plus_times/vxm", "plus_times/mxv", "plus_pair/mxm"}

// generic returns s with the zero kind: the kernels run its generic loop.
func generic[T any](s Semiring[T]) Semiring[T] {
	s.kind = kindGeneric
	return s
}

// typedCase is one configuration of the oracle sweep. mask, accum, replace
// and the output representation apply to the SpMV cells; alias makes the
// vector operand the output (SpMV) or B the same matrix as A (MxM).
type typedCase struct {
	cell    string
	n       int
	mask    int // 0 nil, 1 structural, 2 complemented structural, 3 value
	accum   bool
	replace bool
	alias   bool
	wrep    Rep
	urep    Rep
	seed    int64
}

func (c typedCase) String() string {
	return fmt.Sprintf("%s/n=%d/mask=%d/accum=%v/replace=%v/alias=%v/w=%v/u=%v/seed=%d",
		c.cell, c.n, c.mask, c.accum, c.replace, c.alias, c.wrep, c.urep, c.seed)
}

// typedFloat draws plus_times operands: mixed magnitudes, so the fold order
// shows in the low bits, plus signed zeros and infinities, whose products
// and sums make NaNs. Those are all the hardware's default NaN. No operand
// is a NaN of another payload: when both operands of an add are NaN, x86
// keeps the first one's payload, and Go lets the compiler swap the operands
// of + and *, so neither loop fixes which of two payloads survives.
func typedFloat(r *rand.Rand) float64 {
	switch r.Intn(30) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return 0
	case 2:
		return math.Inf(1 - 2*r.Intn(2))
	}
	return randFloat(r)
}

// typedMask builds the case's mask over n positions.
func typedMask(r *rand.Rand, n, kind int) *Mask {
	switch kind {
	case 1, 2:
		return randMask(r, n, 0.5, kind == 2)
	case 3:
		mv := randVector(r, n, n/2+1, Sorted, func(r *rand.Rand) float64 { return float64(r.Intn(3)) })
		return ValueMask(mv)
	}
	return nil
}

// check runs the case typed and generic on ctx and reports the first
// difference.
func (c typedCase) check(ctx *Context) error {
	r := rand.New(rand.NewSource(c.seed))
	switch {
	case strings.HasPrefix(c.cell, "plus_times/"):
		return checkTypedSpMV(ctx, c, r)
	case c.cell == "plus_pair/mxm":
		return checkTypedMxM(ctx, c, r)
	}
	panic("unknown cell " + c.cell)
}

// spmvInputs are one plus_times SpMV case's operands.
type spmvInputs struct {
	A     *Matrix[float64]
	w0, u *Vector[float64]
	mask  *Mask
	accum BinaryOp[float64]
}

func newSpMVInputs(c typedCase, r *rand.Rand) spmvInputs {
	in := spmvInputs{
		A:    randMatrix(r, c.n, c.n, 4*c.n, typedFloat),
		w0:   randVector(r, c.n, c.n/3+1, c.wrep, typedFloat),
		u:    randVector(r, c.n, c.n/2+1, c.urep, typedFloat),
		mask: typedMask(r, c.n, c.mask),
	}
	in.A.EnsureCSC()
	if c.accum {
		in.accum = PlusTimes[float64]().Add.Op
	}
	return in
}

// run performs the case's pull SpMV under s and returns w as Dense.
func (in spmvInputs) run(ctx *Context, c typedCase, s Semiring[float64]) (*Vector[float64], error) {
	w := in.w0.Dup()
	u := in.u.Dup()
	if c.alias {
		u = w
	}
	desc := Desc{Replace: c.replace, Force: HintPull}
	var err error
	if strings.HasSuffix(c.cell, "/vxm") {
		err = VxM(ctx, w, in.mask, in.accum, s, u, in.A, desc)
	} else {
		err = MxV(ctx, w, in.mask, in.accum, s, in.A, u, desc)
	}
	w.Convert(Dense)
	return w, err
}

func checkTypedSpMV(ctx *Context, c typedCase, r *rand.Rand) error {
	in := newSpMVInputs(c, r)
	got, err := in.run(ctx, c, PlusTimes[float64]())
	if err != nil {
		return err
	}
	want, err := in.run(ctx, c, generic(PlusTimes[float64]()))
	if err != nil {
		return err
	}
	return sameVector(got, want)
}

// sameVector compares two Dense vectors bitwise, absent slots included.
func sameVector(got, want *Vector[float64]) error {
	if got.NVals() != want.NVals() {
		return fmt.Errorf("NVals %d, want %d", got.NVals(), want.NVals())
	}
	for i := 0; i < got.n; i++ {
		if got.present.get(i) != want.present.get(i) {
			return fmt.Errorf("presence at %d: %v, want %v", i, got.present.get(i), want.present.get(i))
		}
		if g, w := math.Float64bits(got.dense[i]), math.Float64bits(want.dense[i]); g != w {
			return fmt.Errorf("value at %d: bits %x, want %x", i, g, w)
		}
	}
	return nil
}

// mxmInputs are one MxM case's operands: the mask is A's own pattern on
// even seeds (the tc and ktruss shape) and an unrelated one on odd seeds.
type mxmInputs struct {
	A, B *Matrix[int64]
	mask *Pattern
}

func newMxMInputs(c typedCase, r *rand.Rand) mxmInputs {
	val := func(r *rand.Rand) int64 { return int64(r.Intn(7)) - 3 }
	in := mxmInputs{A: randMatrix(r, c.n, c.n, 4*c.n, val)}
	in.B = in.A
	if !c.alias {
		in.B = randMatrix(r, c.n, c.n, 4*c.n, val)
	}
	in.B.EnsureCSC()
	in.mask = in.A.Pattern()
	if c.seed%2 == 1 {
		in.mask = randMatrix(r, c.n, c.n, 3*c.n, val).Pattern()
	}
	return in
}

func (in mxmInputs) run(ctx *Context, s Semiring[int64]) (*Matrix[int64], error) {
	dot := &Context{Ex: ctx.Ex, Block: ctx.Block, Kernel: KernelDot}
	return MxM(dot, in.mask, s, in.A, in.B)
}

func checkTypedMxM(ctx *Context, c typedCase, r *rand.Rand) error {
	in := newMxMInputs(c, r)
	got, err := in.run(ctx, PlusPair[int64]())
	if err != nil {
		return err
	}
	want, err := in.run(ctx, generic(PlusPair[int64]()))
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got.rowPtr, want.rowPtr) || !reflect.DeepEqual(got.colIdx, want.colIdx) ||
		!reflect.DeepEqual(got.vals, want.vals) {
		return fmt.Errorf("C differs: %d entries, want %d", got.NVals(), want.NVals())
	}
	return nil
}

func TestTypedKernelsMatchGeneric(t *testing.T) {
	reps := Reps()
	ctxs := denseOracleContexts(0)
	seed := int64(0)
	for _, cell := range typedCells {
		for _, n := range []int{1, 63, 64, 65, 1000} {
			for mask := 0; mask < 4; mask++ {
				for _, accum := range []bool{false, true} {
					for _, replace := range []bool{false, true} {
						for _, alias := range []bool{false, true} {
							seed++
							c := typedCase{cell: cell, n: n, mask: mask, accum: accum, replace: replace, alias: alias,
								wrep: reps[seed%4], urep: reps[(seed/4)%4], seed: seed}
							if cell == "plus_pair/mxm" && (mask > 1 || accum || replace) {
								continue // MxM has a pattern mask only, and no accum or replace
							}
							for name, ctx := range ctxs {
								if err := c.check(ctx); err != nil {
									t.Fatalf("%v on %s: %v", c, name, err)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestTypedKernelsReachTypedLoop: the constructors' semirings take the typed
// loop, and the zero-kind copies (the oracle side above) do not.
func TestTypedKernelsReachTypedLoop(t *testing.T) {
	ctx := NewSerialContext()
	for _, cell := range typedCells {
		c := typedCase{cell: cell, n: 65, wrep: Dense, urep: Dense, seed: 1}
		semiring := strings.Split(cell, "/")[0]
		before := TypedLoopCalls(semiring)
		if err := c.check(ctx); err != nil {
			t.Fatal(err)
		}
		if got := TypedLoopCalls(semiring) - before; got != 1 {
			t.Errorf("%s: %d typed calls for one typed and one generic run, want 1", cell, got)
		}
	}
}

// observe runs fn with a perfmodel collector and a trace installed and
// returns the counters and the recorded events.
func observe(fn func()) (perfmodel.Counters, []trace.Event) {
	tr := trace.New()
	trace.Install(tr)
	defer trace.Install(nil)
	counters := perfmodel.Collect(fn)
	return counters, tr.Events()
}

// spanTags strips an event of what legitimately differs between two runs:
// its clock and the shard that recorded it.
func spanTags(ev trace.Event) trace.Event {
	ev.Start, ev.Dur, ev.Shard = 0, 0, 0
	return ev
}

// TestTypedKernelsSameCounters: a typed loop makes the generic loop's
// perfmodel calls and leaves the same span tags. Cache-level counts depend
// on the addresses of the vectors a call allocates, which differ between
// any two runs, so the comparison is over instructions, loads and stores.
func TestTypedKernelsSameCounters(t *testing.T) {
	ctx := NewSerialContext()
	for k, cell := range typedCells {
		c := typedCase{cell: cell, n: 1000, mask: k % 2, accum: true, wrep: Reps()[k%4], urep: Reps()[(k+1)%4], seed: int64(50 + k)}
		var typed, oracle func()
		r := rand.New(rand.NewSource(c.seed))
		switch {
		case strings.HasPrefix(cell, "plus_times/"):
			in := newSpMVInputs(c, r)
			typed = func() { in.run(ctx, c, PlusTimes[float64]()) }
			oracle = func() { in.run(ctx, c, generic(PlusTimes[float64]())) }
		default:
			in := newMxMInputs(c, r)
			typed = func() { in.run(ctx, PlusPair[int64]()) }
			oracle = func() { in.run(ctx, generic(PlusPair[int64]())) }
		}
		gotC, gotEv := observe(typed)
		wantC, wantEv := observe(oracle)
		if gotC.Instructions != wantC.Instructions || gotC.Loads != wantC.Loads || gotC.Stores != wantC.Stores {
			t.Errorf("%s: counters instr/loads/stores %d/%d/%d, want %d/%d/%d", cell,
				gotC.Instructions, gotC.Loads, gotC.Stores, wantC.Instructions, wantC.Loads, wantC.Stores)
		}
		if gotC.Loads == 0 {
			t.Errorf("%s: no loads recorded", cell)
		}
		if len(gotEv) != len(wantEv) || len(gotEv) == 0 {
			t.Fatalf("%s: %d spans, want %d", cell, len(gotEv), len(wantEv))
		}
		for i := range gotEv {
			if g, w := spanTags(gotEv[i]), spanTags(wantEv[i]); g != w {
				t.Errorf("%s: span %d is %+v, want %+v", cell, i, g, w)
			}
		}
	}
}

func FuzzSemiringKernels(f *testing.F) {
	f.Add(int64(1), uint16(65), uint32(0))
	f.Add(int64(2), uint16(1), uint32(0xffff))
	f.Add(int64(3), uint16(1000), uint32(0x12345))
	f.Add(int64(4), uint16(64), uint32(0xabcdef))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, cfg uint32) {
		next := func(k uint32) int {
			v := int(cfg % k)
			cfg /= k
			return v
		}
		c := typedCase{
			cell:    typedCells[next(uint32(len(typedCells)))],
			n:       1 + int(n)%2048,
			mask:    next(4),
			accum:   next(2) == 1,
			replace: next(2) == 1,
			alias:   next(2) == 1,
			wrep:    Reps()[next(4)],
			urep:    Reps()[next(4)],
			seed:    seed,
		}
		block := []int{0, 1, 7, 64, 333}[next(5)]
		for name, ctx := range denseOracleContexts(block) {
			if err := c.check(ctx); err != nil {
				t.Fatalf("%v on %s block=%d: %v", c, name, block, err)
			}
		}
	})
}

// BenchmarkSemiringKernels times each typed cell against the generic loop
// on the symmetrized skewed RMAT graph at one worker, in the shape its app
// runs it: pagerank's VxM pull into a Dense vector and tc's masked dot MxM.
// edges/s counts the matrix entries an SpMV walks, and the merge steps of
// the dot MxM.
func BenchmarkSemiringKernels(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	sym := gen.RMAT(13, 16, 0.57, 0.19, 0.19, true, 255, 3).Symmetrize()
	n := int(sym.NumNodes)
	S := MatrixFromGraph(sym, func(uint32) int64 { return 1 })
	S.EnsureCSC()
	Af := CastMatrix(S, func(int64) float64 { return 1 })
	Af.EnsureCSC()
	// Every position present, as in pagerank's contributions.
	uf := NewVector[float64](n, Dense)
	for i := 0; i < n; i++ {
		uf.SetElement(i, randFloat(r))
	}
	var merge int64
	for i := 0; i < n; i++ {
		aCols, _ := S.Row(i)
		for _, j := range aCols {
			bRows, _ := S.Col(int(j))
			_, _, x, y := dotPlusPair(aCols, nil, bRows, nil)
			merge += int64(x + y)
		}
	}
	ctx := NewGaloisBLASContext(1)
	cells := []struct {
		name  string
		edges int64
		run   func(typed bool) error
	}{
		{"plus_times/vxm", S.NVals(), func(typed bool) error {
			s := PlusTimes[float64]()
			if !typed {
				s = generic(s)
			}
			return VxM(ctx, NewVector[float64](n, Dense), nil, nil, s, uf, Af, Desc{Replace: true, Force: HintPull})
		}},
		{"plus_pair/mxm", merge, func(typed bool) error {
			s := PlusPair[int64]()
			if !typed {
				s = generic(s)
			}
			_, err := MxM(ctx, S.Pattern(), s, S, S)
			return err
		}},
	}
	for _, cell := range cells {
		for _, typed := range []bool{false, true} {
			name := cell.name + "/generic"
			if typed {
				name = cell.name + "/typed"
			}
			b.Run(name, func(b *testing.B) {
				start := time.Now()
				for i := 0; i < b.N; i++ {
					if err := cell.run(typed); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(cell.edges)*float64(b.N)/time.Since(start).Seconds(), "edges/s")
			})
		}
	}
}
