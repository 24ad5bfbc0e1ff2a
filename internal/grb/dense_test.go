package grb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The in-place Dense path is held to an oracle: every kernel that has it
// must leave a Dense w exactly as the same call on a Sorted copy of w,
// followed by Convert(Dense), leaves it — values bitwise (absent slots
// included, which both paths keep zero), presence and NVals.

// denseKernels are the kernels with an in-place Dense path. Each runs
// w<mask> = kernel(u, v) with the given accum and descriptor.
var denseKernels = []string{"apply", "select", "ewiseadd", "ewisemult", "assign", "vxm-pull", "mxv-pull"}

// denseCase is one configuration of the oracle sweep.
type denseCase struct {
	kernel  string
	n       int
	mask    int // 0 nil, 1 structural, 2 complemented structural, 3 value
	accum   bool
	replace bool
	alias   int // 0 none, 1 w is u, 2 w is v
	urep    Rep
	vrep    Rep
	seed    int64
}

func (c denseCase) String() string {
	return fmt.Sprintf("%s/n=%d/mask=%d/accum=%v/replace=%v/alias=%d/u=%v/v=%v/seed=%d",
		c.kernel, c.n, c.mask, c.accum, c.replace, c.alias, c.urep, c.vrep, c.seed)
}

// binary reports whether the kernel reads two vector operands.
func (c denseCase) binary() bool { return c.kernel == "ewiseadd" || c.kernel == "ewisemult" }

// denseInputs are a case's operands, built from its seed.
type denseInputs struct {
	w0   *Vector[float64]
	u, v *Vector[float64]
	mask *Mask
	A    *Matrix[float64]
}

func newDenseInputs(c denseCase) denseInputs {
	r := rand.New(rand.NewSource(c.seed))
	n := c.n
	in := denseInputs{
		w0: randVector(r, n, n/3+1, Dense, randFloat),
		u:  randVector(r, n, n/2+1, c.urep, randFloat),
		v:  randVector(r, n, n/3+1, c.vrep, randFloat),
		A:  randMatrix(r, n, n, 4*n, randFloat),
	}
	in.A.EnsureCSC()
	switch c.mask {
	case 1, 2:
		in.mask = randMask(r, n, 0.5, c.mask == 2)
	case 3:
		mv := randVector(r, n, n/2+1, Sorted, func(r *rand.Rand) float64 {
			if r.Intn(3) == 0 {
				return 0 // explicit zeros the value mask must reject
			}
			return randFloat(r)
		})
		in.mask = ValueMask(mv)
	}
	return in
}

// run calls the case's kernel on a copy of w0 in representation rep and
// returns it converted to Dense.
func (c denseCase) run(ctx *Context, in denseInputs, rep Rep) (*Vector[float64], error) {
	w := in.w0.Dup()
	w.Convert(rep)
	u, v := in.u.Dup(), in.v.Dup()
	switch c.alias {
	case 1:
		u = w
	case 2:
		v = w
	}
	plus := func(a, b float64) float64 { return a + b }
	var accum BinaryOp[float64]
	if c.accum {
		accum = plus
	}
	desc := Desc{Replace: c.replace}
	var err error
	switch c.kernel {
	case "apply":
		err = Apply(ctx, w, in.mask, accum, func(x float64) float64 { return x*1.5 - 0.25 }, u, desc)
	case "select":
		pred := func(x float64, i, _ int) bool { return x > 0 || i%3 == 0 }
		err = SelectVector(ctx, w, in.mask, pred, u, desc)
	case "ewiseadd":
		err = EWiseAdd(ctx, w, in.mask, accum, func(a, b float64) float64 { return a*2 + b }, u, v, desc)
	case "ewisemult":
		err = EWiseMult(ctx, w, in.mask, accum, func(a, b float64) float64 { return a*b - a }, u, v, desc)
	case "assign":
		err = AssignConstant(ctx, w, in.mask, accum, 2.5, desc)
	case "vxm-pull":
		desc.Force = HintPull
		err = VxM(ctx, w, in.mask, accum, PlusTimes[float64](), u, in.A, desc)
	case "mxv-pull":
		desc.Force = HintPull
		err = MxV(ctx, w, in.mask, accum, PlusTimes[float64](), in.A, u, desc)
	default:
		panic("unknown kernel " + c.kernel)
	}
	w.Convert(Dense)
	return w, err
}

// check runs the case both ways on ctx and reports the first difference.
func (c denseCase) check(ctx *Context) error {
	in := newDenseInputs(c)
	got, err := c.run(ctx, in, Dense)
	if err != nil {
		return err
	}
	want, err := c.run(ctx, in, Sorted)
	if err != nil {
		return err
	}
	if got.NVals() != want.NVals() {
		return fmt.Errorf("NVals %d, want %d", got.NVals(), want.NVals())
	}
	for i := 0; i < c.n; i++ {
		if got.present.get(i) != want.present.get(i) {
			return fmt.Errorf("presence at %d: %v, want %v", i, got.present.get(i), want.present.get(i))
		}
		if g, w := math.Float64bits(got.dense[i]), math.Float64bits(want.dense[i]); g != w {
			return fmt.Errorf("value at %d: bits %x, want %x", i, g, w)
		}
	}
	return nil
}

// denseOracleContexts are the executors of the sweep: serial, static
// scheduling at 2 workers and work stealing at 4.
func denseOracleContexts(block int) map[string]*Context {
	ctxs := map[string]*Context{
		"serial":   NewSerialContext(),
		"static-2": NewSuiteSparseContext(2),
		"steal-4":  NewGaloisBLASContext(4),
	}
	for _, ctx := range ctxs {
		ctx.Block = block
	}
	return ctxs
}

func TestDenseOracle(t *testing.T) {
	reps := Reps()
	ctxs := denseOracleContexts(0)
	seed := int64(0)
	for _, kernel := range denseKernels {
		for _, n := range []int{1, 63, 64, 65, 1000} {
			for mask := 0; mask < 4; mask++ {
				for _, accum := range []bool{false, true} {
					for _, replace := range []bool{false, true} {
						for alias := 0; alias < 3; alias++ {
							seed++
							c := denseCase{kernel: kernel, n: n, mask: mask, accum: accum, replace: replace, alias: alias,
								urep: reps[seed%4], vrep: reps[(seed/4)%4], seed: seed}
							if alias == 1 && c.kernel == "assign" || alias == 2 && !c.binary() {
								continue
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

// TestDenseOracleBlockSweep: the in-place path is blocking-independent, so
// every block size (rounded up to whole presence words) gives the oracle's
// answer.
func TestDenseOracleBlockSweep(t *testing.T) {
	reps := Reps()
	for _, block := range []int{1, 7, 64, 100, 333, 1 << 20} {
		ctxs := denseOracleContexts(block)
		for k, kernel := range denseKernels {
			for _, n := range []int{65, 1000} {
				c := denseCase{kernel: kernel, n: n, mask: k % 4, accum: k%2 == 0, replace: k%3 == 0,
					urep: reps[k%4], vrep: reps[(k+1)%4], seed: int64(1000 + k)}
				for name, ctx := range ctxs {
					if err := c.check(ctx); err != nil {
						t.Fatalf("%v on %s block=%d: %v", c, name, block, err)
					}
				}
			}
		}
	}
}

func FuzzDenseKernels(f *testing.F) {
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
		c := denseCase{
			kernel:  denseKernels[next(uint32(len(denseKernels)))],
			n:       1 + int(n)%2048,
			mask:    next(4),
			accum:   next(2) == 1,
			replace: next(2) == 1,
			alias:   next(3),
			urep:    Reps()[next(4)],
			vrep:    Reps()[next(4)],
			seed:    seed,
		}
		if c.alias == 1 && c.kernel == "assign" || c.alias == 2 && !c.binary() {
			c.alias = 0
		}
		block := []int{0, 1, 7, 64, 333}[next(5)]
		for name, ctx := range denseOracleContexts(block) {
			if err := c.check(ctx); err != nil {
				t.Fatalf("%v on %s block=%d: %v", c, name, block, err)
			}
		}
	})
}

// TestDenseAllocsPinned holds the in-place path's allocations per call to a
// small constant at one worker, whatever the vector length: the executor's
// loop launch (about five) plus the kernel's closures. The staged path
// allocated two growing entry lists per block, a stitched copy, and an
// operand copy per call — hundreds at this length.
func TestDenseAllocsPinned(t *testing.T) {
	const n = 8192
	r := rand.New(rand.NewSource(7))
	ctx := NewGaloisBLASContext(1)
	A := randMatrix(r, n, n, 8*n, randFloat)
	A.EnsureCSC()
	u := randVector(r, n, n, Dense, randFloat)
	v := randVector(r, n, n, Dense, randFloat)
	w := randVector(r, n, n, Dense, randFloat)
	plus := func(a, b float64) float64 { return a + b }
	half := func(x float64) float64 { return x / 2 }
	calls := map[string]func() error{
		"apply":     func() error { return Apply(ctx, w, nil, nil, half, w, Desc{Replace: true}) },
		"ewiseadd":  func() error { return EWiseAdd(ctx, w, nil, nil, plus, w, u, Desc{}) },
		"ewisemult": func() error { return EWiseMult(ctx, w, nil, nil, plus, u, v, Desc{Replace: true}) },
		"vxm-pull":  func() error { return VxM(ctx, w, nil, nil, PlusTimes[float64](), u, A, Desc{Replace: true}) },
	}
	const maxAllocs = 16
	for name, call := range calls {
		var err error
		allocs := testing.AllocsPerRun(20, func() {
			if e := call(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs > maxAllocs {
			t.Errorf("%s: %.0f allocations per call, want <= %d", name, allocs, maxAllocs)
		}
	}
}
