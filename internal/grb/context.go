package grb

import (
	"slices"
	"sync/atomic"

	"graphstudy/internal/galois"
)

// MxMKernel selects the sparse matrix-matrix multiply algorithm.
type MxMKernel int

const (
	// KernelAuto picks per input like SuiteSparse does: the dot-product
	// kernel when a mask bounds the output, Gustavson for wide accumulators
	// that fit, the hash kernel otherwise.
	KernelAuto MxMKernel = iota
	// KernelGustavson is SAXPY-based SpGEMM with a dense accumulator per
	// worker (Gustavson's method).
	KernelGustavson
	// KernelHash is SAXPY-based SpGEMM with a hash-table accumulator.
	KernelHash
	// KernelDot is the SDOT (dot-product) SpGEMM over B's CSC.
	KernelDot
)

func (k MxMKernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelGustavson:
		return "gustavson"
	case KernelHash:
		return "hash"
	case KernelDot:
		return "dot"
	}
	return "unknown"
}

// Context carries the runtime configuration of the GraphBLAS kernels: which
// executor schedules parallel loops (the SS-vs-GB control of the study) and
// which SpGEMM kernel to prefer.
type Context struct {
	// Ex schedules all parallel loops.
	Ex galois.Executor
	// Kernel chooses the MxM algorithm; KernelAuto selects per input.
	Kernel MxMKernel
	// Stop, when non-nil and set, asks round-based algorithm loops to
	// abandon work: the bench harness's stand-in for the study's 2-hour
	// timeout. Kernels do not check it; algorithms poll between rounds.
	Stop *atomic.Bool
	// Block overrides the deterministic block size of the parallel kernels;
	// <= 0 selects galois.DetBlock per range. Results legitimately depend on
	// the blocking (float folds regroup), so production code leaves it 0 and
	// only the metamorphic tests sweep it.
	Block int

	// ws is the per-run kernel workspace (see workspace). A kernel takes
	// it for the length of its call and puts it back, so a Context reused
	// across calls reuses the scratch, and two goroutines that happen to
	// share a Context never share a workspace.
	ws atomic.Pointer[workspace]
	// inline stands in for Ex on calls whose work fits one chunk (exFor);
	// nil, as in a Context literal, sends every call to Ex.
	inline *galois.Serial
}

// Stopped reports whether a timeout/cancel was requested.
func (c *Context) Stopped() bool { return c.Stop != nil && c.Stop.Load() }

// NewSuiteSparseContext mimics SuiteSparse:GraphBLAS's runtime: OpenMP-style
// static scheduling. t <= 0 uses the configured thread count.
func NewSuiteSparseContext(t int) *Context {
	return newContext(galois.NewStatic(t))
}

// NewGaloisBLASContext mimics GaloisBLAS: the Galois runtime's dynamic
// chunked scheduling with work stealing.
func NewGaloisBLASContext(t int) *Context {
	return newContext(galois.NewWorkStealing(t))
}

// NewSerialContext runs every kernel inline; used by tests and traced runs.
func NewSerialContext() *Context { return newContext(galois.NewSerial()) }

func newContext(ex galois.Executor) *Context {
	return &Context{Ex: ex, inline: galois.NewSerialFor(ex.Threads())}
}

// threads returns the executor's worker count.
func (c *Context) threads() int { return c.Ex.Threads() }

// chunk is the work (entries read, positions visited) below which a kernel
// call runs on the calling goroutine, as SuiteSparse's GB_nthreads does
// below its 64K chunk: at 2 workers, splitting a call starts to pay
// between 8K and 32K (BenchmarkChunkCrossover, EXPERIMENTS.md).
const chunk = 16384

// exFor returns the executor of a call doing work units of work: Ex, or its
// inline twin when the work fits one chunk or Ex has one worker. It is the
// one place grb decides whether a call gets workers; results are the same.
func (c *Context) exFor(work int) galois.Executor {
	if c.inline != nil && (work < chunk || c.Ex.Threads() == 1) {
		return c.inline
	}
	return c.Ex
}

// workspace is the scratch the kernels of one run reuse from call to call,
// so that a round whose frontier is small costs no O(n) allocation: the
// push accumulators of spmvPush and SpGEMM (one per worker, see accMarks),
// and the bitmap a Sorted or List mask source is spread into. It lives on
// the Context, so it is dropped with the run rather than pooled
// process-wide.
type workspace struct {
	accs []*accMarks
	// scratch holds the bitmap of the Sorted/List mask bound to the current
	// call; words lists the words spread set, which release clears. The
	// fused bfs kernel marks its next frontier in it instead, and clears
	// it itself. It is all zero between calls.
	scratch bitmap
	words   []int32
	mv      maskView
	pos     []int32 // the positions of spmvPush's Dense u
}

// acquire takes the Context's workspace for one kernel call, or a fresh
// one when another call holds it.
func (c *Context) acquire() *workspace {
	if ws := c.ws.Swap(nil); ws != nil {
		return ws
	}
	return &workspace{}
}

// release clears the call's mask scratch and hands the workspace back.
func (c *Context) release(ws *workspace) {
	for _, wi := range ws.words {
		ws.scratch[wi] = 0
	}
	ws.words = ws.words[:0]
	ws.mv = maskView{}
	c.ws.Store(ws)
}

// bind resolves m for the current call. A nil mask binds to a nil view.
func (ws *workspace) bind(m *Mask) *maskView {
	if m == nil {
		return nil
	}
	return m.src.view(ws, m.Complement)
}

// setView stores the call's mask view in the workspace, so binding does
// not allocate.
func (ws *workspace) setView(mv maskView) *maskView {
	ws.mv = mv
	return &ws.mv
}

// spread sets, in the scratch bitmap, position idx[k] for every k that
// keep admits, and returns the view of that n-position bitmap with the
// sorted list of the words it set.
func (ws *workspace) spread(n int, idx []int32, keep func(k int) bool, comp bool) *maskView {
	nw := (n + 63) >> 6
	if len(ws.scratch) < nw {
		ws.scratch = newBitmap(n)
	}
	b := ws.scratch[:nw]
	if ws.words == nil {
		ws.words = make([]int32, 0, 64) // non-nil: an empty list still names no word
	}
	for k, i := range idx {
		if keep(k) {
			b.set(int(i))
			ws.words = append(ws.words, i>>6)
		}
	}
	slices.Sort(ws.words) // already sorted for a Sorted source
	ws.words = slices.Compact(ws.words)
	return ws.setView(maskView{bits: b, words: ws.words, comp: comp})
}

// pushAccs starts an spmvPush or SpGEMM call: it empties every
// accumulator's extracted-index buffer, whose entries belong to the
// previous call (the values are cut to match), and returns the per-worker
// slots for t workers. A nil slot is filled by the worker that first needs
// it.
func (ws *workspace) pushAccs(t int) []*accMarks {
	if len(ws.accs) < t {
		ws.accs = append(ws.accs, make([]*accMarks, t-len(ws.accs))...)
	}
	for _, m := range ws.accs {
		if m != nil {
			m.idx = m.idx[:0]
		}
	}
	return ws.accs[:t]
}
