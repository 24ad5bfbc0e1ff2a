package grb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Masks are views over their source vector (mask.go). The oracle here holds
// every kernel that takes a mask to one rule: given a view mask it must
// leave w exactly as the same call with a bitmap materialized from the
// source before the call — values bitwise, presence, NVals and
// representation — for struct and value masks, with and without
// complement, over Dense, Bitmap, Sorted and List sources, and with w
// itself as the mask source.

// allows binds m for a throwaway call and probes position i, for tests
// that check a mask's filter directly.
func (m *Mask) allows(i int) bool {
	var ws workspace
	return ws.bind(m).allows(i)
}

// fixedBits is a materialized mask source: a bitmap computed before the
// call, which is what StructMask and ValueMask built before masks became
// views.
type fixedBits bitmap

func (b fixedBits) view(ws *workspace, comp bool) *maskView {
	return ws.setView(maskView{bits: bitmap(b), comp: comp})
}
func (b fixedBits) count() int { return bitmap(b).count() }

// materialized returns the bitmap mask equal to StructMask(src) or
// ValueMask(src), read out of src's entries now.
func materialized(src *Vector[float64], value, comp bool) *Mask {
	b := newBitmap(src.Size())
	is, vs := src.Entries()
	for k, i := range is {
		if !value || vs[k] != 0 {
			b.set(i)
		}
	}
	return &Mask{n: src.Size(), src: fixedBits(b), Complement: comp}
}

// maskKernels are the kernels that take a mask, with the SpMV kernels
// forced to each direction.
var maskKernels = []string{"assign", "apply", "select", "ewiseadd", "ewisemult",
	"vxm-push", "vxm-pull", "mxv-push", "mxv-pull"}

// maskCase is one configuration of the mask-view oracle.
type maskCase struct {
	kernel  string
	n       int
	src     Rep // the mask source's representation
	value   bool
	comp    bool
	alias   bool // w is the mask source
	wrep    Rep  // w's representation when it is not the source
	accum   bool
	replace bool
	seed    int64
}

func (c maskCase) String() string {
	return fmt.Sprintf("%s/n=%d/src=%v/value=%v/comp=%v/alias=%v/w=%v/accum=%v/replace=%v/seed=%d",
		c.kernel, c.n, c.src, c.value, c.comp, c.alias, c.wrep, c.accum, c.replace, c.seed)
}

// maskInputs are a case's operands, built from its seed.
type maskInputs struct {
	src, w0, u, v *Vector[float64]
	A             *Matrix[float64]
}

func newMaskInputs(c maskCase) maskInputs {
	r := rand.New(rand.NewSource(c.seed))
	n := c.n
	withZeros := func(r *rand.Rand) float64 {
		if r.Intn(3) == 0 {
			return 0 // explicit zeros a value mask must reject
		}
		return randFloat(r)
	}
	reps := Reps()
	in := maskInputs{
		src: randVector(r, n, n/2+1, c.src, withZeros),
		w0:  randVector(r, n, n/3+1, c.wrep, randFloat),
		u:   randVector(r, n, n/2+1, reps[r.Intn(4)], randFloat),
		v:   randVector(r, n, n/3+1, reps[r.Intn(4)], randFloat),
		A:   randMatrix(r, n, n, 4*n, randFloat),
	}
	in.A.EnsureCSC()
	return in
}

// run calls the case's kernel on a copy of its output, masked by a view
// over the source when view is set and by a materialized bitmap otherwise.
func (c maskCase) run(ctx *Context, in maskInputs, view bool) (*Vector[float64], error) {
	src := in.src.Dup()
	w := in.w0.Dup()
	if c.alias {
		w = src
	}
	mask := materialized(src, c.value, c.comp)
	if view {
		if c.value {
			mask = ValueMask(src)
		} else {
			mask = StructMask(src)
		}
		if c.comp {
			mask = mask.Comp()
		}
	}
	var accum BinaryOp[float64]
	if c.accum {
		accum = func(a, b float64) float64 { return a - b }
	}
	desc := Desc{Replace: c.replace}
	u, v := in.u, in.v
	var err error
	switch c.kernel {
	case "assign":
		err = AssignConstant(ctx, w, mask, accum, 2.5, desc)
	case "apply":
		err = Apply(ctx, w, mask, accum, func(x float64) float64 { return x*1.5 - 0.25 }, u, desc)
	case "select":
		err = SelectVector(ctx, w, mask, func(x float64, i, _ int) bool { return x > 0 || i%3 == 0 }, u, desc)
	case "ewiseadd":
		err = EWiseAdd(ctx, w, mask, accum, func(a, b float64) float64 { return a*2 + b }, u, v, desc)
	case "ewisemult":
		err = EWiseMult(ctx, w, mask, accum, func(a, b float64) float64 { return a*b - a }, u, v, desc)
	case "vxm-push", "vxm-pull":
		desc.Force = HintPush
		if c.kernel == "vxm-pull" {
			desc.Force = HintPull
		}
		err = VxM(ctx, w, mask, accum, PlusTimes[float64](), u, in.A, desc)
	case "mxv-push", "mxv-pull":
		desc.Force = HintPush
		if c.kernel == "mxv-pull" {
			desc.Force = HintPull
		}
		err = MxV(ctx, w, mask, accum, PlusTimes[float64](), in.A, u, desc)
	default:
		panic("unknown kernel " + c.kernel)
	}
	return w, err
}

// sameOutput reports the first difference between two vectors: their
// representation, NVals, entries bitwise, and for Dense the value slots of
// absent positions too.
func sameOutput(got, want *Vector[float64]) error {
	if got.Rep() != want.Rep() || got.NVals() != want.NVals() {
		return fmt.Errorf("rep %v nvals %d, want rep %v nvals %d", got.Rep(), got.NVals(), want.Rep(), want.NVals())
	}
	gi, gv := got.Entries()
	wi, wv := want.Entries()
	for k := range wi {
		if gi[k] != wi[k] || math.Float64bits(gv[k]) != math.Float64bits(wv[k]) {
			return fmt.Errorf("entry %d: (%d, %v), want (%d, %v)", k, gi[k], gv[k], wi[k], wv[k])
		}
	}
	if got.Rep() == Dense {
		for i := range got.dense {
			if math.Float64bits(got.dense[i]) != math.Float64bits(want.dense[i]) {
				return fmt.Errorf("slot %d: %v, want %v", i, got.dense[i], want.dense[i])
			}
		}
	}
	return nil
}

// check runs the case both ways on ctx and reports the first difference.
func (c maskCase) check(ctx *Context) error {
	in := newMaskInputs(c)
	want, err := c.run(ctx, in, false)
	if err != nil {
		return err
	}
	got, err := c.run(ctx, in, true)
	if err != nil {
		return err
	}
	return sameOutput(got, want)
}

func TestMaskViewOracle(t *testing.T) {
	reps := Reps()
	ctxs := denseOracleContexts(0)
	seed := int64(0)
	for _, kernel := range maskKernels {
		for _, n := range []int{1, 63, 64, 65, 1000} {
			for _, src := range reps {
				for flags := 0; flags < 8; flags++ {
					seed++
					c := maskCase{kernel: kernel, n: n, src: src,
						value: flags&1 != 0, comp: flags&2 != 0, alias: flags&4 != 0,
						wrep: reps[seed%4], accum: seed%3 == 0, replace: seed%5 < 2, seed: seed}
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

// TestMaskViewReadsAtCall pins the view contract: a mask reads its source
// when the kernel runs, so a mutation after StructMask/ValueMask is seen,
// for every source representation.
func TestMaskViewReadsAtCall(t *testing.T) {
	ctx := NewSerialContext()
	for _, rep := range Reps() {
		src := NewVector[int32](8, rep)
		sm, vm := StructMask(src), ValueMask(src)
		src.SetElement(3, 1)
		src.SetElement(5, 0)
		for _, tc := range []struct {
			name string
			m    *Mask
			want []int
		}{{"struct", sm, []int{3, 5}}, {"value", vm, []int{3}}, {"!value", vm.Comp(), []int{0, 1, 2, 4, 5, 6, 7}}} {
			w := NewVector[int32](8, Sorted)
			if err := AssignConstant(ctx, w, tc.m, nil, 9, Desc{}); err != nil {
				t.Fatal(err)
			}
			if got, _ := w.Entries(); fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("%v %s mask: wrote %v, want %v", rep, tc.name, got, tc.want)
			}
		}
	}
}

// TestMaskScratchCleared: a Sorted/List source is spread into the run's
// scratch bitmap for one call only, so a later call with another source
// sees none of its bits — also when the call rewrote the source.
func TestMaskScratchCleared(t *testing.T) {
	ctx := NewSerialContext()
	a := NewVector[int32](130, Sorted)
	a.SetElement(0, 1)
	a.SetElement(129, 1)
	if err := AssignConstant(ctx, a, StructMask(a), nil, 5, Desc{Replace: true}); err != nil {
		t.Fatal(err)
	}
	a.Clear()
	a.SetElement(64, 1)
	w := NewVector[int32](130, Sorted)
	if err := AssignConstant(ctx, w, StructMask(a), nil, 7, Desc{}); err != nil {
		t.Fatal(err)
	}
	if got, _ := w.Entries(); fmt.Sprint(got) != "[64]" {
		t.Fatalf("second call wrote %v, want [64]", got)
	}
}

func FuzzMaskViews(f *testing.F) {
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
		reps := Reps()
		c := maskCase{
			kernel:  maskKernels[next(uint32(len(maskKernels)))],
			n:       1 + int(n)%2048,
			src:     reps[next(4)],
			value:   next(2) == 1,
			comp:    next(2) == 1,
			alias:   next(2) == 1,
			wrep:    reps[next(4)],
			accum:   next(2) == 1,
			replace: next(2) == 1,
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
