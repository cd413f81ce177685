package kernels

import (
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smat/internal/gen"
	"smat/internal/matrix"
)

// spmvCase is one matrix with its serial reference product.
type spmvCase struct {
	mat  *Mat[float64]
	x    []float64
	want []float64
}

func newSpMVCase(lib *Library[float64], m *matrix.CSR[float64]) spmvCase {
	c := spmvCase{mat: &Mat[float64]{Format: matrix.FormatCSR, CSR: m}, x: intVector(m.Cols), want: make([]float64, m.Rows)}
	lib.Basic(matrix.FormatCSR).Run(c.mat, c.x, c.want, 1)
	return c
}

func (c spmvCase) check(t *testing.T, k *Kernel[float64], pool *Pool[float64], what string) {
	t.Helper()
	y := make([]float64, len(c.want))
	for i := range y {
		y[i] = 123
	}
	k.RunPooled(c.mat, c.x, y, pool)
	for i := range y {
		if y[i] != c.want[i] {
			t.Fatalf("%s: y[%d] = %g, want %g", what, i, y[i], c.want[i])
		}
	}
}

// coverChunks runs a RunChunks dispatch over n unit chunks and checks each
// chunk ran exactly once, on the index it was handed.
func coverChunks(t *testing.T, pool *Pool[float64], n int) {
	t.Helper()
	bounds := make([]int, n+1)
	for i := range bounds {
		bounds[i] = i
	}
	hits := make([]int, n)
	var mu sync.Mutex
	pool.RunChunks(bounds, func(chunk, lo, hi int) {
		if lo != chunk || hi != chunk+1 {
			t.Errorf("chunk %d got [%d,%d)", chunk, lo, hi)
		}
		mu.Lock()
		hits[chunk]++
		mu.Unlock()
	})
	for i, got := range hits {
		if got != 1 {
			t.Fatalf("%d-chunk dispatch: chunk %d ran %d times", n, i, got)
		}
	}
}

// TestPoolNarrowDispatchesInterleaved mixes dispatches with fewer chunks
// than workers and full-width ones on one pool: only the workers a dispatch
// needs may run, and the barrier must count exactly those.
func TestPoolNarrowDispatchesInterleaved(t *testing.T) {
	lib := NewLibrary[float64]()
	k := lib.Lookup("csr_parallel")
	pool := NewPool[float64](4)
	defer pool.Close()
	// Few rows with many entries each clear the serial cutoff while the
	// even row split yields only one chunk per row.
	rng := rand.New(rand.NewSource(29))
	cases := []spmvCase{
		newSpMVCase(lib, intCSR(rng, 2, 200000, 5000)),
		newSpMVCase(lib, gen.Laplacian2D5pt[float64](60, 60)),
		newSpMVCase(lib, intCSR(rng, 3, 200000, 3000)),
	}
	for i, want := range []int{2, 4, 3} {
		if n := len(cases[i].mat.PlanFor(4).RowBounds) - 1; n != want {
			t.Fatalf("case %d plans %d chunks, want %d", i, n, want)
		}
	}
	iters := 300
	if testing.Short() {
		iters = 60
	}
	for i := 0; i < iters; i++ {
		cases[i%len(cases)].check(t, k, pool, "interleaved SpMV")
		coverChunks(t, pool, 2+i%3)
	}
}

// waitParked polls until every worker of the pool has parked on its wake
// channel, i.e. has given up polling after the spin window.
func waitParked(t *testing.T, s *poolState[float64]) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		all := true
		for _, w := range s.slots {
			if w.parked.Load() == 0 {
				all = false
			}
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("workers never parked after the spin window")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestPoolWakesParkedWorkers spaces dispatches beyond the spin window, so
// every dispatch has to wake parked workers through their channels — and
// the dispatcher's own barrier has to park and be woken too.
func TestPoolWakesParkedWorkers(t *testing.T) {
	lib := NewLibrary[float64]()
	k := lib.Lookup("csr_parallel_nnz")
	pool := NewPool[float64](3)
	defer pool.Close()
	c := newSpMVCase(lib, gen.Laplacian2D5pt[float64](80, 80))
	c.check(t, k, pool, "warm-up")
	iters := 40
	if testing.Short() {
		iters = 10
	}
	for i := 0; i < iters; i++ {
		waitParked(t, pool.s)
		for j, w := range pool.s.slots {
			// The park is tagged with the generation the worker has run: a
			// dispatcher descheduled between its generation bump and its
			// CompareAndSwap (expecting that generation) cannot claim it and
			// wake the worker into re-running a finished dispatch.
			if g := w.gen.Load(); w.parked.Load() != g+1 || w.parked.CompareAndSwap(g, 0) {
				t.Fatalf("worker %d parked with tag %d at generation %d, want %d", j, w.parked.Load(), g, g+1)
			}
		}
		c.check(t, k, pool, "after park")
		waitParked(t, pool.s)
		// A worker chunk that outlasts the dispatcher's polling window
		// (parkAfter plus a round batch) makes the dispatcher park on the
		// barrier as well.
		pool.RunChunks([]int{0, 1, 2, 3}, func(chunk, lo, hi int) {
			if chunk == 2 {
				time.Sleep(4 * parkAfter)
			}
		})
	}
}

// waitGoroutines polls until the goroutine count drops to at most n.
func waitGoroutines(t *testing.T, n int, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines remain, want ≤ %d", what, runtime.NumGoroutine(), n)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestPoolShutdownWhileSpinning closes a pool — explicitly, and through the
// finalizer of an abandoned one — right after a dispatch, while its workers
// are still polling: they must all exit.
func TestPoolShutdownWhileSpinning(t *testing.T) {
	lib := NewLibrary[float64]()
	k := lib.Lookup("csr_parallel")
	c := newSpMVCase(lib, gen.Laplacian2D5pt[float64](70, 70))

	base := runtime.NumGoroutine()
	pool := NewPool[float64](4)
	c.check(t, k, pool, "before Close")
	pool.Close()
	waitGoroutines(t, base, "Close")

	base = runtime.NumGoroutine()
	func() {
		abandoned := NewPool[float64](4)
		c.check(t, k, abandoned, "before abandon")
	}()
	waitGoroutines(t, base, "finalizer")
}

// TestPoolRunChunksAndSpMVShareWorkers alternates SpGEMM products (the
// RunChunks job path) and SpMV dispatches on one pool, back to back and
// from one goroutine, so each kind of dispatch finds the workers still
// polling after the other.
func TestPoolRunChunksAndSpMVShareWorkers(t *testing.T) {
	lib := NewLibrary[float64]()
	k := lib.Lookup("csr_parallel_unroll4")
	rng := rand.New(rand.NewSource(23))
	a := randCSR(rng, 180, 160, 0.06)
	b := randCSR(rng, 160, 170, 0.06)
	want := SpGEMM(a, b, nil, 1)
	c := newSpMVCase(lib, gen.Laplacian2D5pt[float64](64, 64))
	pool := NewPool[float64](3)
	defer pool.Close()
	iters := 60
	if testing.Short() {
		iters = 15
	}
	for i := 0; i < iters; i++ {
		if got := SpGEMM(a, b, pool, 3); !want.Equal(got) {
			t.Fatalf("iteration %d: pooled SpGEMM differs from serial", i)
		}
		c.check(t, k, pool, "SpMV after SpGEMM")
	}
}

// panicking runs fn and returns the recovered panic value, or nil.
func panicking(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// TestPoolChunkZeroPanicKeepsBarrier is the poisoned-barrier regression:
// chunk 0 panics on the dispatching goroutine and the caller recovers. The
// dispatch must not return before its workers finish, and must leave the
// pool consistent: every later dispatch matches serial bit for bit.
func TestPoolChunkZeroPanicKeepsBarrier(t *testing.T) {
	lib := NewLibrary[float64]()
	k := lib.Lookup("csr_parallel")
	c := newSpMVCase(lib, gen.Laplacian2D5pt[float64](50, 50)) // > serialWork nonzeros
	pool := NewPool[float64](4)
	defer pool.Close()
	c.check(t, k, pool, "warm-up")

	// Job path: workers are still sleeping in their chunks when chunk 0
	// panics; the panic may only surface once they are done.
	var finished atomic.Int32
	v := panicking(func() {
		pool.RunChunks([]int{0, 1, 2, 3, 4}, func(chunk, lo, hi int) {
			if chunk == 0 {
				panic("chunk 0 failed")
			}
			time.Sleep(3 * time.Millisecond)
			finished.Add(1)
		})
	})
	if v != "chunk 0 failed" {
		t.Fatalf("recovered %v, want the chunk-0 panic", v)
	}
	if n := finished.Load(); n != 3 {
		t.Fatalf("RunChunks returned with %d of 3 worker chunks finished", n)
	}

	// SpMV path: a chunk function that panics only on chunk 0.
	bounds := c.mat.PlanFor(4).RowBounds
	v = panicking(func() {
		pool.s.tryRun(bounds, func(m *Mat[float64], x, y []float64, _, lo, hi int) {
			if lo == 0 {
				panic("spmv chunk 0 failed")
			}
			csrRowRange(m.CSR, x, y, lo, hi)
		}, c.mat, c.x, make([]float64, len(c.want)), 1)
	})
	if s, _ := v.(string); !strings.Contains(s, "spmv chunk 0") {
		t.Fatalf("recovered %v, want the SpMV chunk-0 panic", v)
	}
	if !pool.s.mu.TryLock() {
		t.Fatal("pool still owned after the recovered dispatch")
	}
	pool.s.mu.Unlock()

	for i := 0; i < 1000; i++ {
		c.check(t, k, pool, "after recovered panic")
		if i%10 == 0 {
			coverChunks(t, pool, 4)
		}
	}
}
