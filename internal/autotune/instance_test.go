package autotune

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"smat/internal/gen"
	"smat/internal/kernels"
	"smat/internal/matrix"
)

// serialKernelModel is modelAlways with a kernel map like a model searched
// at one thread: every format names a serial kernel.
func serialKernelModel(f matrix.Format, conf float64) *Model {
	m := modelAlways(f, conf)
	m.Kernels = map[string]string{
		"CSR": "csr_unroll4",
		"COO": "coo_unroll4",
		"DIA": "dia_blocked",
		"ELL": "ell_rowmajor",
	}
	return m
}

// atLeastTwoProcs raises GOMAXPROCS to 2 for the test: New caps a tuner's
// thread count at GOMAXPROCS.
func atLeastTwoProcs(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// boundName is the kernel a tuner with the given thread count must bind for
// the model's choice of format f.
func boundName(t *testing.T, model *Model, f matrix.Format, threads int) string {
	t.Helper()
	lib := kernels.NewLibrary[float64]()
	k := lib.Lookup(model.Kernels[f.String()])
	if threads == 1 {
		return k.Name
	}
	p := lib.Parallel(k)
	if p == k {
		t.Fatalf("model kernel %s has no parallel instance; the test needs one", k.Name)
	}
	return p.Name
}

// checkBound asserts that the decision and the operator report the bound
// instance of the model's kernel for the decision's format.
func checkBound(t *testing.T, path string, model *Model, threads int, op *Operator[float64], d *Decision) {
	t.Helper()
	want := boundName(t, model, d.Chosen, threads)
	if d.Kernel != want {
		t.Errorf("threads=%d %s: Decision.Kernel = %s, want %s", threads, path, d.Kernel, want)
	}
	if op.Format() == d.Chosen && op.KernelName() != want {
		t.Errorf("threads=%d %s: KernelName() = %s, want %s", threads, path, op.KernelName(), want)
	}
}

// TestThreadCountPicksKernelInstance: the model names the algorithm, the
// tuner's thread count picks the instance. A one-thread tuner binds the
// model's serial kernel and a two-thread tuner its parallel instance, on
// every decision path, and both compute the same product.
func TestThreadCountPicksKernelInstance(t *testing.T) {
	atLeastTwoProcs(t)
	tri := intDiagonal(3000)
	rnd := gen.RandomUniform[float64](1500, 1500, 6, rand.New(rand.NewSource(5)))
	for _, threads := range []int{1, 2} {
		predict := serialKernelModel(matrix.FormatDIA, 0.99)
		tuner := New[float64](predict, Config{Threads: threads})
		op, d, err := tuner.Tune(tri)
		if err != nil || d.UsedFallback || d.Chosen != matrix.FormatDIA {
			t.Fatalf("threads=%d predicted: decision %+v, err %v", threads, d, err)
		}
		checkBound(t, "predicted", predict, threads, op, d)
		checkAgainstDense(t, op, tri)

		op, d, err = tuner.Tune(intDiagonal(3000))
		if err != nil || !d.CacheHit {
			t.Fatalf("threads=%d cache hit: decision %+v, err %v", threads, d, err)
		}
		checkBound(t, "cache hit", predict, threads, op, d)

		op, d, err = tuner.TuneOpts(tri, TuneOptions{FormatHint: matrix.FormatCOO, HasFormatHint: true})
		if err != nil {
			t.Fatal(err)
		}
		checkBound(t, "hinted", predict, threads, op, d)
		checkAgainstDense(t, op, tri)
		tuner.Close()

		measure := serialKernelModel(matrix.FormatDIA, 0.30)
		tuner = New[float64](measure, Config{Threads: threads})
		op, d, err = tuner.Tune(rnd)
		if err != nil || !d.UsedFallback {
			t.Fatalf("threads=%d fallback: decision %+v, err %v", threads, d, err)
		}
		checkBound(t, "fallback", measure, threads, op, d)
		tuner.Close()

		// Seeded amortisation entries: below break-even the tuned-CSR
		// incumbent serves; past it a background conversion swaps DIA in.
		tuner = New[float64](predict, Config{Threads: threads})
		m := intDiagonal(300)
		seedAmortized(tuner, m, 2)
		op, d, err = tuner.TuneOpts(m, TuneOptions{Iterations: 9})
		if err != nil || !d.Amortized || d.Chosen != matrix.FormatCSR {
			t.Fatalf("threads=%d incumbent: decision %+v, err %v", threads, d, err)
		}
		checkBound(t, "amortized incumbent", predict, threads, op, d)
		checkAgainstDense(t, op, m)

		hold := make(chan struct{})
		op, d, err = tuner.TuneOpts(m, TuneOptions{Iterations: 100, HoldConversion: hold})
		if err != nil || d.Converted {
			t.Fatalf("threads=%d background: decision %+v, err %v", threads, d, err)
		}
		if want := boundName(t, predict, matrix.FormatCSR, threads); op.KernelName() != want {
			t.Errorf("threads=%d before swap: KernelName() = %s, want %s", threads, op.KernelName(), want)
		}
		close(hold)
		if st := op.AwaitConversion(); st != ConvertDone {
			t.Fatalf("threads=%d: AwaitConversion = %v", threads, st)
		}
		checkBound(t, "background swap", predict, threads, op, d)
		checkAgainstDense(t, op, m)
		tuner.Close()
	}
}

// TestSharedCacheBindsPerTunerInstance: a Config.Cache shared by a
// one-thread and a two-thread tuner stores the algorithm and the leader's
// thread count. A tuner at another thread count does not inherit the
// leader's measurements — it re-tunes, binds its own instance and replaces
// the entry — while a tuner at the same count hits it. An entry put without
// a thread count is a hit at either count.
func TestSharedCacheBindsPerTunerInstance(t *testing.T) {
	atLeastTwoProcs(t)
	model := serialKernelModel(matrix.FormatDIA, 0.99)
	for _, leader := range []int{1, 2} {
		cache := NewCache(0)
		tuners := map[int]*Tuner[float64]{
			1: New[float64](model, Config{Threads: 1, Cache: cache}),
			2: New[float64](model, Config{Threads: 2, Cache: cache}),
		}
		m := intDiagonal(3000)
		checkEntry := func(who string, threads int) {
			t.Helper()
			e, ok := cache.Get(m2key(m))
			if !ok || e.Kernel != model.Kernels["DIA"] || e.Threads != threads {
				t.Errorf("leader threads=%d, after %s: cached kernel %q threads %d, want the model's %q at %d",
					leader, who, e.Kernel, e.Threads, model.Kernels["DIA"], threads)
			}
		}
		op, d, err := tuners[leader].Tune(m)
		if err != nil || d.CacheHit {
			t.Fatalf("leader threads=%d: decision %+v, err %v", leader, d, err)
		}
		checkBound(t, "shared-cache leader", model, leader, op, d)
		checkEntry("leader", leader)

		follower := 3 - leader
		op, d, err = tuners[follower].Tune(intDiagonal(3000))
		if err != nil || d.CacheHit {
			t.Fatalf("follower threads=%d reused a threads=%d entry: decision %+v, err %v", follower, leader, d, err)
		}
		checkBound(t, "shared-cache re-tune", model, follower, op, d)
		checkAgainstDense(t, op, m)
		checkEntry("follower", follower)
		if st := cache.Stats(); st.Refreshes != 1 || st.Misses != 2 {
			t.Errorf("leader threads=%d: stats %+v, want 2 misses and 1 refresh", leader, st)
		}

		same := New[float64](model, Config{Threads: follower, Cache: cache})
		op, d, err = same.Tune(intDiagonal(3000))
		if err != nil || !d.CacheHit {
			t.Fatalf("second threads=%d tuner: decision %+v, err %v", follower, d, err)
		}
		checkBound(t, "shared-cache hit", model, follower, op, d)
		checkAgainstDense(t, op, m)
		same.Close()

		cache.Put(m2key(m), CacheEntry{Format: matrix.FormatDIA, Kernel: model.Kernels["DIA"], Confidence: 1, Measured: true})
		for threads, tu := range tuners {
			op, d, err = tu.Tune(intDiagonal(3000))
			if err != nil || !d.CacheHit {
				t.Fatalf("threads=%d on a hand-put entry: decision %+v, err %v", threads, d, err)
			}
			checkBound(t, "hand-put hit", model, threads, op, d)
		}
		for _, tu := range tuners {
			tu.Close()
		}
	}
}

// TestMulVecShapeMismatchPanicsOnCaller: a mis-sized x or y must panic on
// the caller's goroutine before any chunk reaches a pool worker, where an
// out-of-range index would kill the process. A 200k-row tridiagonal matrix
// tuned to DIA binds dia_blocked_parallel at 2 and 4 threads; after the
// recovered panic the operator still computes the right product.
func TestMulVecShapeMismatchPanicsOnCaller(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	const n = 200_000
	m := intDiagonal(n)
	want := make([]float64, n)
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%4 + 1)
	}
	ref := &kernels.Mat[float64]{Format: matrix.FormatCSR, CSR: m}
	kernels.NewLibrary[float64]().Basic(matrix.FormatCSR).Run(ref, x, want, 1)
	model := serialKernelModel(matrix.FormatDIA, 0.99)

	for _, threads := range []int{1, 2, 4} {
		tuner := New[float64](model, Config{Threads: threads})
		op, d, err := tuner.Tune(m)
		if err != nil || d.Chosen != matrix.FormatDIA {
			t.Fatalf("threads=%d: decision %+v, err %v", threads, d, err)
		}
		if threads > 1 && op.KernelName() != "dia_blocked_parallel" {
			t.Fatalf("threads=%d: bound %s, want dia_blocked_parallel", threads, op.KernelName())
		}
		y := make([]float64, n)
		for _, c := range []struct {
			name string
			x, y []float64
		}{
			{"short x", x[:n/2], y},
			{"long x", append(append([]float64{}, x...), 1), y},
			{"short y", x, y[:n-1]},
		} {
			v := func() (v any) {
				defer func() { v = recover() }()
				op.MulVec(c.x, c.y)
				return nil
			}()
			if s, _ := v.(string); !strings.Contains(s, "MulVec on 200000x200000 matrix") {
				t.Errorf("threads=%d %s: recovered %v, want the shape panic", threads, c.name, v)
			}
		}
		op.MulVec(x, y)
		for i := range y {
			if y[i] != want[i] {
				t.Fatalf("threads=%d after recovered panic: y[%d] = %g, want %g", threads, i, y[i], want[i])
			}
		}
		tuner.Close()
	}
}
