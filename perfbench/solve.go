package main

import (
	"errors"
	"math/rand"

	"smat"
	"smat/internal/amg"
	"smat/internal/gen"
	"smat/internal/kernels"
	"smat/internal/matrix"
	"smat/internal/refblas"
	"smat/internal/solve"
)

const (
	cgGrid    = 160 // CG on a cgGrid² 5-point Laplacian
	blockGrid = 64  // BlockCG on a blockGrid² 5-point Laplacian
	blockK    = 8   // BlockCG right-hand sides
	amgGrid   = 224 // AMG-PCG on an amgGrid² 9-point Laplacian
	solveTol  = 1e-8
	// levelIters is the iteration hint of each AMG level operator: about
	// four products per level per V-cycle over some fifteen PCG iterations.
	levelIters = 64
	// steadyCalls is the MulVec count of a steady sub-block after the
	// solves, steadyBlocks the sub-blocks per operator.
	steadyCalls  = 32
	steadyBlocks = 4
)

// solveWorkload runs three solves per round on a fresh tuner: CG, BlockCG
// through MulVecBatch, and AMG-preconditioned CG with a pooled set-up and
// tuned level operators. Steady MulVec blocks on the three fine operators
// follow, outside the timed sequence, for the per-call metrics.
type solveWorkload struct {
	cg, block, fine *input // the steady-block inputs, one per solve
	b, bb, b9       []float64
	pool            *kernels.Pool[float64]

	// The steady MulVecBatch block on the BlockCG operator: blockK
	// interleaved x columns, each with its own reference product.
	xb, yb    []float64
	batchRefs []*reference

	tuner *smat.Tuner[float64]
	ops   []*smat.Operator[float64] // cg, block and fine operators of the latest round
	hier  *amg.Hierarchy[float64]
}

func newSolveWorkload(h *harness, seed int64) (*solveWorkload, error) {
	rng := rand.New(rand.NewSource(seed*7919 + 2))
	w := &solveWorkload{pool: kernels.NewPool[float64](h.threads)}
	mats := []*matrix.CSR[float64]{
		gen.Laplacian2D5pt[float64](cgGrid, cgGrid),
		gen.Laplacian2D5pt[float64](blockGrid, blockGrid),
		gen.Laplacian2D9pt[float64](amgGrid, amgGrid),
	}
	names := []string{"cg-5pt", "blockcg-5pt", "amg-9pt"}
	ins := make([]*input, len(mats))
	for i, m := range mats {
		in, err := newInput(h, names[i], m, seedX(rng, m.Cols), steadyCalls)
		if err != nil {
			w.close()
			return nil, err
		}
		ins[i] = in
	}
	w.cg, w.block, w.fine = ins[0], ins[1], ins[2]
	w.b = seedX(rng, w.cg.m.Rows)
	w.bb = seedX(rng, w.block.m.Rows*blockK)
	w.b9 = seedX(rng, w.fine.m.Rows)
	w.xb, w.yb = seedX(rng, w.block.m.Cols*blockK), make([]float64, w.block.m.Rows*blockK)
	x := make([]float64, w.block.m.Cols)
	for j := 0; j < blockK; j++ {
		for i := range x {
			x[i] = w.xb[i*blockK+j]
		}
		w.batchRefs = append(w.batchRefs, newReference(w.block.m, x))
	}
	return w, nil
}

func (w *solveWorkload) prepare(*harness) error { return nil }

// tracedOp wraps an operator so each product becomes a span; solvers and
// Bind get it in traced rounds, which makes solver self time measurable.
type tracedOp struct {
	op  batchOperator
	tr  *tracer
	nnz int
}

func (o tracedOp) MulVec(x, y []float64) {
	m := o.tr.beginNNZ("MulVec", o.nnz)
	o.op.MulVec(x, y)
	o.tr.end(m)
}

func (o tracedOp) MulVecBatch(xb, yb []float64, k int) {
	m := o.tr.beginNNZ("MulVecBatch", o.nnz*k)
	o.op.MulVecBatch(xb, yb, k)
	o.tr.end(m)
}

// batchOperator is what the solvers need of an operator.
type batchOperator interface {
	MulVec(x, y []float64)
	MulVecBatch(xb, yb []float64, k int)
}

// operator returns op as the solvers should see it this round: wrapped in
// spans when tracing, bare otherwise.
func (h *harness) operator(op *smat.Operator[float64], nnz int) batchOperator {
	if h.tr.on {
		return tracedOp{op: op, tr: h.tr, nnz: nnz}
	}
	return op
}

// csrOp is the never-convert baseline operator: refblas CSR, with a batch
// product that loops the single-vector call over the columns.
type csrOp struct {
	lib    *refblas.Lib[float64]
	m      *matrix.CSR[float64]
	xs, ys []float64
}

func (o *csrOp) MulVec(x, y []float64) { o.lib.CSRGeMV(o.m, x, y) }

func (o *csrOp) MulVecBatch(xb, yb []float64, k int) {
	if len(o.xs) != o.m.Cols {
		o.xs, o.ys = make([]float64, o.m.Cols), make([]float64, o.m.Rows)
	}
	for j := 0; j < k; j++ {
		for c := range o.xs {
			o.xs[c] = xb[c*k+j]
		}
		o.lib.CSRGeMV(o.m, o.xs, o.ys)
		for r, v := range o.ys {
			yb[r*k+j] = v
		}
	}
}

// setupOp wraps and tunes one solver matrix and waits for its conversion.
func (h *harness) setupOp(tu *smat.Tuner[float64], m *matrix.CSR[float64], iters int, res *roundResult) (*smat.Operator[float64], float64) {
	a, newSec := h.newMatrix(m)
	if a == nil {
		return nil, 0
	}
	op, tune := h.tune(tu, a, iters, res)
	if op == nil {
		return nil, 0
	}
	res.setup += newSec + tune + h.await(op, res)
	return op, tune
}

// solveOps are the operators one pass of the solves runs on.
type solveOps struct {
	cg, block batchOperator
	hier      *amg.Hierarchy[float64]
}

// solves runs CG, BlockCG and AMG-PCG through ops, checks every solution
// by its true residual, and returns the seconds spent solving.
// Baseline spans carry the refblas. prefix so they stay apart from the
// tuned ones.
func (w *solveWorkload) solves(h *harness, ops solveOps, res *roundResult, prefix string) float64 {
	var total float64
	x := make([]float64, w.cg.m.Rows)
	m := h.tr.begin(prefix + "CG")
	st, err := solve.CG[float64](ops.cg, nil, w.b, x, solveTol, 20*cgGrid)
	total += h.tr.end(m)
	h.check(err == nil && st.Converged && trueResidual(w.cg.m, w.b, x) <= solveTol, "CG residual")

	xb := make([]float64, len(w.bb))
	m = h.tr.begin(prefix + "BlockCG")
	bst, err := solve.BlockCG[float64](ops.block, w.bb, xb, blockK, solveTol, 20*blockGrid)
	total += h.tr.end(m)
	ok := err == nil && bst.Converged
	for j := 0; j < blockK && ok; j++ {
		ok = trueResidualColumn(w.block.m, w.bb, xb, blockK, j) <= solveTol
	}
	h.check(ok, "BlockCG residual")

	x9 := make([]float64, w.fine.m.Rows)
	m = h.tr.begin(prefix + "SolvePCG")
	pst := ops.hier.SolvePCG(w.b9, x9, solveTol, 200)
	total += h.tr.end(m)
	h.check(pst.Converged && trueResidual(w.fine.m, w.b9, x9) <= solveTol, "AMG-PCG residual")
	if prefix == "" {
		res.cgIters, res.blockIters, res.pcgIters = st.Iterations, bst.Iterations, pst.Iterations
	}
	return total
}

// hierarchy runs the pooled AMG set-up and binds every level through
// factory; it returns the seconds spent.
func (w *solveWorkload) hierarchy(h *harness, factory amg.OperatorFactory[float64], prefix string) (*amg.Hierarchy[float64], float64) {
	m := h.tr.begin(prefix + "SetupPooled")
	hier, err := amg.SetupPooled(w.fine.m, amg.Options{}, w.pool)
	d := h.tr.end(m)
	if err != nil {
		h.check(false, "SetupPooled: "+err.Error())
		return nil, d
	}
	m = h.tr.begin(prefix + "Bind")
	err = hier.Bind(factory)
	d += h.tr.end(m)
	if err != nil {
		h.check(false, "Bind: "+err.Error())
		return nil, d
	}
	return hier, d
}

// tuned is one Tune call of the solve workload: the matrix and its seconds.
type tuned struct {
	m   *matrix.CSR[float64]
	sec float64
}

// smatSide runs the tuned sequence: set up the operators (tune, the pooled
// AMG set-up and Bind), then solve. It returns every Tune it made.
func (w *solveWorkload) smatSide(h *harness, res *roundResult) []tuned {
	a0 := heapAllocs()
	setup0 := res.setup
	var cgOp, blockOp, fineOp *smat.Operator[float64]
	var tunes []tuned
	cgOp, sec := h.setupOp(w.tuner, w.cg.m, 3*cgGrid, res)
	tunes = append(tunes, tuned{w.cg.m, sec})
	blockOp, sec = h.setupOp(w.tuner, w.block.m, 3*blockGrid*blockK, res)
	tunes = append(tunes, tuned{w.block.m, sec})

	var levelOps []*smat.Operator[float64]
	factory := func(m *matrix.CSR[float64]) (amg.SpMV[float64], error) {
		a, _ := h.newMatrix(m) // timed inside the Bind span
		if a == nil {
			return nil, errors.New("level matrix rejected")
		}
		op, tune := h.tune(w.tuner, a, levelIters, res)
		if op == nil {
			return nil, errors.New("level matrix not tuned")
		}
		if m == w.fine.m {
			fineOp = op
		}
		tunes = append(tunes, tuned{m, tune})
		levelOps = append(levelOps, op)
		return h.operator(op, m.NNZ()), nil
	}
	hier, d := w.hierarchy(h, factory, "")
	res.setup += d
	for _, op := range levelOps {
		res.setup += h.await(op, res)
	}
	res.setupAlloc += heapAllocs() - a0
	res.ttr += res.setup - setup0
	w.ops = []*smat.Operator[float64]{cgOp, blockOp, fineOp}
	w.hier = hier
	if cgOp == nil || blockOp == nil || hier == nil {
		return tunes
	}
	res.levels, res.opComplexity = len(hier.Levels), hier.OperatorComplexity()
	ops := solveOps{cg: h.operator(cgOp, w.cg.m.NNZ()), block: h.operator(blockOp, w.block.m.NNZ()), hier: hier}
	res.ttr += w.solves(h, ops, res, "")
	return tunes
}

// baselinePrefix names the spans of the never-convert baseline.
const baselinePrefix = "refblas."

// csrSide runs the same solves with never-convert refblas CSR operators
// everywhere, including every AMG level.
func (w *solveWorkload) csrSide(h *harness, res *roundResult) {
	factory := func(m *matrix.CSR[float64]) (amg.SpMV[float64], error) {
		return &csrOp{lib: h.lib, m: m}, nil
	}
	hier, d := w.hierarchy(h, factory, baselinePrefix)
	res.csrSec += d
	if hier == nil {
		return
	}
	ops := solveOps{cg: &csrOp{lib: h.lib, m: w.cg.m}, block: &csrOp{lib: h.lib, m: w.block.m}, hier: hier}
	res.csrSec += w.solves(h, ops, res, baselinePrefix)
}

func (w *solveWorkload) round(h *harness) roundResult {
	var res roundResult
	w.closeTuner()
	w.tuner = smat.NewTuner[float64](h.model, smat.WithThreads(h.threads))
	smatFirst := h.round%2 == 0
	if !smatFirst {
		w.csrSide(h, &res)
	}
	tunes := w.smatSide(h, &res)
	if smatFirst {
		w.csrSide(h, &res)
	}
	// Steady blocks, outside the timed sequence: per-call latency of each
	// fine operator against both baselines, in sub-blocks of alternating
	// order.
	for i, in := range []*input{w.cg, w.block, w.fine} {
		op := w.ops[i]
		if op == nil {
			continue
		}
		times := make([]float64, in.calls)
		var ratios []float64
		for sub := 0; sub < steadyBlocks; sub++ {
			var b baselineTimes
			first := (h.round+i+sub)%2 == 0
			if !first {
				b = h.baseline(in, in.calls, &res)
			}
			_, smatMed := h.callLoop(op, in, times, false, &res)
			if first {
				b = h.baseline(in, in.calls, &res)
			}
			ratios = append(ratios, ratio(b.bfMed, smatMed))
		}
		res.bestFixed = append(res.bestFixed, median(ratios))
	}
	if w.ops[1] != nil {
		w.batchBlock(h, w.ops[1])
	}
	// Each Tune against one refblas CSR call on the same matrix.
	for _, t := range tunes {
		res.tuneOverhead = append(res.tuneOverhead, ratio(t.sec, h.csrCall(t.m)))
	}
	st := w.tuner.Stats()
	res.cacheHits, res.cacheMisses = st.Hits, st.Misses
	return res
}

// batchBlock makes steady MulVecBatch calls on the BlockCG operator and
// checks every column of every output against its reference.
func (w *solveWorkload) batchBlock(h *harness, op *smat.Operator[float64]) {
	nnz := w.block.m.NNZ()
	for c := 0; c < steadyCalls; c++ {
		poison(w.yb)
		m := h.tr.beginNNZ("MulVecBatch", nnz*blockK)
		op.MulVecBatch(w.xb, w.yb, blockK)
		h.tr.end(m)
		ok := true
		for j, ref := range w.batchRefs {
			ok = ok && ref.matchesColumn(w.yb, blockK, j)
		}
		h.check(ok, "MulVecBatch output")
	}
}

func (w *solveWorkload) targets() ([]*input, []*smat.Operator[float64], *amg.Hierarchy[float64]) {
	return []*input{w.cg, w.block, w.fine}, w.ops, w.hier
}

func (w *solveWorkload) closeTuner() {
	if w.tuner != nil {
		w.tuner.Close()
		w.tuner = nil
	}
}

func (w *solveWorkload) close() {
	w.closeTuner()
	w.pool.Close()
}
