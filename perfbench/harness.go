package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"smat"
	"smat/internal/kernels"
	"smat/internal/matrix"
	"smat/internal/refblas"
)

// harness is the run-wide state the workloads share: the model, the thread
// count every tuner gets, the reference library the baselines run on, the
// tracer, and the tally of checked operations.
type harness struct {
	model   *smat.Model
	threads int
	lib     *refblas.Lib[float64]
	tr      *tracer
	round   int // index of the round being run; alternates baseline order

	attempted, failed int
	failures          []string // the first few, for the diagnostics line
}

// check counts one attempted operation and whether its output was right.
func (h *harness) check(ok bool, what string) {
	h.attempted++
	if !ok {
		h.failed++
		if len(h.failures) < 8 {
			h.failures = append(h.failures, what)
		}
	}
}

// checkProduct checks y against the input's reference. The failure label is
// built only on a miss, so a passing check allocates nothing.
func (h *harness) checkProduct(in *input, y []float64, what string) {
	if in.ref.matches(y) {
		h.check(true, "")
		return
	}
	h.check(false, in.name+": "+what)
}

// input is one matrix of a workload with everything a round needs for it:
// a seeded x, the independent reference product, the lifetime (MulVec calls
// after Tune), and the best fixed format the baseline runs it in.
type input struct {
	name    string
	m       *matrix.CSR[float64]
	x, y    []float64
	yb      []float64 // baseline output
	ref     *reference
	calls   int
	best    matrix.Format
	bestMat *kernels.Mat[float64]
}

func newInput(h *harness, name string, m *matrix.CSR[float64], x []float64, calls int) (*input, error) {
	in := &input{name: name, m: m, x: x, y: make([]float64, m.Rows), yb: make([]float64, m.Rows), calls: calls}
	in.best, _ = h.lib.BestFixedFormat(m, h.model.MaxFill, func(op func()) float64 { return timeMedian(7, op) })
	if err := in.setValues(h, m); err != nil {
		return nil, err
	}
	return in, nil
}

// setValues points the input at m (same structure, possibly new values)
// and rebuilds the reference product and the best-fixed baseline matrix.
func (in *input) setValues(h *harness, m *matrix.CSR[float64]) error {
	in.m = m
	in.ref = newReference(m, in.x)
	mat, err := kernels.Convert(m, in.best, h.model.MaxFill)
	if err != nil {
		return fmt.Errorf("%s: best-fixed %v conversion: %w", in.name, in.best, err)
	}
	in.bestMat = mat
	return nil
}

// runBest runs the refblas entry point of the input's best fixed format.
func (h *harness) runBest(in *input, x, y []float64) {
	switch in.best {
	case matrix.FormatCOO:
		h.lib.COOGeMV(in.bestMat.COO, x, y)
	case matrix.FormatDIA:
		h.lib.DIAGeMV(in.bestMat.DIA, x, y)
	default:
		h.lib.CSRGeMV(in.bestMat.CSR, x, y)
	}
}

// roundResult is what one round — one complete call sequence with its
// interleaved baselines — measured.
type roundResult struct {
	run int32 // the round index, which is also the run id of its spans

	ttr, setup float64 // seconds of the SMAT call sequence and of its set-up part
	setupAlloc float64 // heap bytes allocated during set-up

	mvSec, mvFlops float64   // MulVec seconds and 2·nnz per call
	callNs         []float64 // per call loop: the median MulVec ns per nnz
	bestFixed      []float64 // per matrix: refblas best-fixed ÷ SMAT per-call median
	tuneOverhead   []float64 // per matrix: Tune ÷ one refblas CSR call
	csrSec         float64   // refblas never-convert CSR time for the same sequence

	csrCallSec, csrWork float64 // refblas CSR calls: seconds and nnz·calls
	bfCallSec, bfWork   float64 // refblas best-fixed calls: seconds and nnz·calls

	fallback, amortized, convertFailed, callsBeforeSwap int
	cacheHits, cacheMisses                              uint64

	cgIters, blockIters, pcgIters int
	levels                        int
	opComplexity                  float64

	gcCycles, gcPauseSec, allocBytes float64 // traced rounds only
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs returns the cumulative bytes the process has allocated.
func heapAllocs() float64 {
	metrics.Read(allocSample)
	return float64(allocSample[0].Value.Uint64())
}

// decisionPath classifies how Tune reached its decision.
func decisionPath(d smat.Decision) string {
	switch {
	case d.CacheHit:
		return "cache_hit"
	case d.UsedFallback:
		return "fallback"
	default:
		return "predicted"
	}
}

// newMatrix wraps the CSR arrays through the public API (which validates
// them), timed as part of set-up.
func (h *harness) newMatrix(m *matrix.CSR[float64]) (*smat.Matrix[float64], float64) {
	t0 := time.Now()
	a, err := smat.NewCSR(m.Rows, m.Cols, m.RowPtr, m.ColIdx, m.Vals)
	d := time.Since(t0).Seconds()
	if err != nil {
		h.check(false, "NewCSR: "+err.Error())
		return nil, d
	}
	return a, d
}

// tune calls Tune with the matrix's expected lifetime and records the
// decision path.
func (h *harness) tune(tu *smat.Tuner[float64], a *smat.Matrix[float64], iters int, res *roundResult) (*smat.Operator[float64], float64) {
	m := h.tr.begin("Tune")
	op, err := tu.Tune(a, smat.WithIterations(iters))
	d := h.tr.end(m)
	if err != nil {
		h.check(false, "Tune: "+err.Error())
		return nil, d
	}
	h.check(true, "")
	dec := op.Decision()
	h.tr.note(m, decisionPath(dec))
	if dec.UsedFallback {
		res.fallback++
	}
	if dec.Amortized {
		res.amortized++
	}
	return op, d
}

// await waits for a pending background conversion.
func (h *harness) await(op *smat.Operator[float64], res *roundResult) float64 {
	m := h.tr.begin("AwaitConversion")
	st := op.AwaitConversion()
	d := h.tr.end(m)
	if st == smat.ConvertFailed {
		res.convertFailed++
	}
	return d
}

// callLoop makes len(times) MulVec calls on op, timing each into times and
// checking each output against the reference. It returns the total and the
// per-call median seconds.
func (h *harness) callLoop(op *smat.Operator[float64], in *input, times []float64, countPending bool, res *roundResult) (total, med float64) {
	nnz := in.m.NNZ()
	for c := range times {
		if countPending && op.ConversionState() == smat.ConvertPending {
			res.callsBeforeSwap++
		}
		poison(in.y)
		m := h.tr.beginNNZ("MulVec", nnz)
		op.MulVec(in.x, in.y)
		times[c] = h.tr.end(m)
		h.checkProduct(in, in.y, "MulVec output")
	}
	total, med = sum(times), median(times)
	res.mvSec += total
	res.mvFlops += float64(2 * nnz * len(times))
	res.callNs = append(res.callNs, med*1e9/float64(max(nnz, 1)))
	return total, med
}

// served is what one operator's life measured.
type served struct {
	op      *smat.Operator[float64]
	tune    float64 // seconds in Tune
	callMed float64 // median seconds of one MulVec
	ok      bool
}

// serve runs one operator's life on the SMAT side: wrap the CSR input, Tune
// with the lifetime as iteration hint, make the calls, and wait for any
// background conversion — before the calls when awaitFirst, else after
// them, so calls meanwhile are served by the tuned-CSR incumbent.
func (h *harness) serve(tu *smat.Tuner[float64], in *input, awaitFirst bool, res *roundResult) served {
	var s served
	times := make([]float64, in.calls)
	a0 := heapAllocs()
	a, newSec := h.newMatrix(in.m)
	if a == nil {
		return s
	}
	var wait float64
	s.op, s.tune = h.tune(tu, a, in.calls, res)
	if s.op == nil {
		return s
	}
	if awaitFirst {
		wait = h.await(s.op, res)
		res.setupAlloc += heapAllocs() - a0
	}
	total, med := h.callLoop(s.op, in, times, !awaitFirst, res)
	if !awaitFirst {
		// The window spans the calls, which allocate nothing, so that a
		// background conversion's allocations count as set-up.
		wait = h.await(s.op, res)
		res.setupAlloc += heapAllocs() - a0
	}
	setup := newSec + s.tune + wait
	res.setup += setup
	res.ttr += setup + total
	s.callMed = med
	return s
}

// baselineTimes is what one baseline block measured.
type baselineTimes struct {
	csrTotal, bfMed float64 // seconds
}

// baseline runs n calls through refblas never-convert CSR and n through
// the input's best fixed format. Like callLoop, it poisons the output before
// each call and checks it after, outside the timing, so both sides of a
// ratio run with the same cache traffic between calls.
func (h *harness) baseline(in *input, n int, res *roundResult) baselineTimes {
	var b baselineTimes
	nnz := float64(in.m.NNZ())
	times := make([]float64, n)
	for _, best := range []bool{false, true} {
		for c := range times {
			poison(in.yb)
			t0 := time.Now()
			if best {
				h.runBest(in, in.x, in.yb)
			} else {
				h.lib.CSRGeMV(in.m, in.x, in.yb)
			}
			times[c] = time.Since(t0).Seconds()
			h.checkProduct(in, in.yb, "refblas output")
		}
		if best {
			res.bfCallSec += sum(times)
			res.bfWork += nnz * float64(n)
			b.bfMed = median(times)
		} else {
			b.csrTotal = sum(times)
			res.csrCallSec += b.csrTotal
			res.csrWork += nnz * float64(n)
		}
	}
	return b
}

// csrCall returns the median seconds of nine warm refblas CSR calls on m:
// the unit of tune_overhead_x_csr. A short lifetime's own calls are too few
// and too cold to serve as the unit.
func (h *harness) csrCall(m *matrix.CSR[float64]) float64 {
	x, y := make([]float64, m.Cols), make([]float64, m.Rows)
	for i := range x {
		x[i] = 1
	}
	return timeMedian(9, func() { h.lib.CSRGeMV(m, x, y) })
}

// pair runs the SMAT life of an input and its baseline, alternating which
// goes first by round and position so slow drift of the host hits both
// sides alike, and records the per-matrix ratios.
func (h *harness) pair(tu *smat.Tuner[float64], in *input, pos int, awaitFirst bool, res *roundResult) served {
	var b baselineTimes
	smatFirst := (h.round+pos)%2 == 0
	if !smatFirst {
		b = h.baseline(in, in.calls, res)
	}
	s := h.serve(tu, in, awaitFirst, res)
	if smatFirst {
		b = h.baseline(in, in.calls, res)
	}
	res.csrSec += b.csrTotal
	if s.op != nil {
		res.bestFixed = append(res.bestFixed, ratio(b.bfMed, s.callMed))
		res.tuneOverhead = append(res.tuneOverhead, ratio(s.tune, h.csrCall(in.m)))
	}
	return s
}
