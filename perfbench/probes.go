package main

import (
	"math"
	"runtime"
	"time"

	"smat"
	"smat/internal/amg"
	"smat/internal/features"
	"smat/internal/kernels"
	"smat/internal/matrix"
	"smat/internal/solve"
)

// The isolated probes run after the timed rounds of a traced run, on the
// operators of the latest round, so they never perturb end-to-end numbers.
// Each is fenced by a GC and a warm-up call and reports a median.

// timeMedian returns the median seconds of reps calls of f after a warm-up.
func timeMedian(reps int, f func()) float64 {
	f()
	ts := make([]float64, reps)
	for i := range ts {
		t0 := time.Now()
		f()
		ts[i] = time.Since(t0).Seconds()
	}
	return median(ts)
}

// repsFor picks a repetition count that keeps a probe of one matrix near a
// millisecond of work: more reps for small matrices, at least five.
func repsFor(nnz int) int {
	return max(5, min(200, 500_000/max(nnz, 1)))
}

// probe pairs an input with the operator the latest round tuned for it.
type probe struct {
	in  *input
	op  *smat.Operator[float64]
	dec smat.Decision
	mat *kernels.Mat[float64] // the input in the operator's chosen format
}

func probesOf(h *harness, w workload) []probe {
	ins, ops, _ := w.targets()
	var ps []probe
	for i, in := range ins {
		if i >= len(ops) || ops[i] == nil {
			continue
		}
		dec := ops[i].Decision()
		mat, err := kernels.ConvertWithParams(in.m, dec.Chosen, h.model.MaxFill, dec.Params)
		if err != nil {
			h.check(false, in.name+": probe conversion: "+err.Error())
			continue
		}
		ps = append(ps, probe{in: in, op: ops[i], dec: dec, mat: mat})
	}
	return ps
}

// runProbes measures every isolated per-layer metric.
func runProbes(h *harness, w workload) map[string]float64 {
	out := map[string]float64{}
	ps := probesOf(h, w)
	_, _, hier := w.targets()
	pool := kernels.NewPool[float64](h.threads)
	defer pool.Close()
	lib := kernels.NewLibrary[float64]()
	totalNNZ := 0
	for _, p := range ps {
		totalNNZ += p.in.m.NNZ()
	}

	// features: one Extract pass over the workload's matrices.
	runtime.GC()
	ext := timeMedian(5, func() {
		for _, p := range ps {
			features.Extract(p.in.m)
		}
	})
	out["features.extract_s"] = ext
	out["features.extract_ns_per_nnz"] = ratio(ext*1e9, float64(totalNNZ))

	// kernels: conversion into each chosen format and the first plan.
	runtime.GC()
	var convs, plans []float64
	for rep := 0; rep < 3; rep++ {
		var conv, plan float64
		for _, p := range ps {
			mat, ct, err := kernels.ConvertTimedParams(p.in.m, p.dec.Chosen, h.model.MaxFill, p.dec.Params)
			if err != nil {
				continue
			}
			conv += ct.Sec
			t0 := time.Now()
			mat.PlanFor(h.threads)
			plan += time.Since(t0).Seconds()
		}
		convs, plans = append(convs, conv), append(plans, plan)
	}
	out["kernels.convert_s"] = median(convs)
	out["kernels.convert_ns_per_nnz"] = ratio(median(convs)*1e9, float64(totalNNZ))
	out["kernels.plan_s"] = median(plans)

	// kernels: pool dispatch of empty chunks, one per thread.
	bounds := make([]int, h.threads+1)
	noop := func(chunk, lo, hi int) {}
	runtime.GC()
	out["kernels.dispatch_ns"] = timeMedian(2001, func() { pool.RunChunks(bounds, noop) }) * 1e9

	sweepProbe(h, ps, lib, pool, out)
	kernelProbe(h, ps, lib, pool, out)

	// bytes per flop, computed from the array sizes of the chosen formats.
	var bytes, flops float64
	for _, p := range ps {
		bytes += matBytes(p.mat)
		flops += float64(kernels.FLOPs(p.in.m.NNZ()))
	}
	out["kernels.bytes_per_flop_computed"] = ratio(bytes, flops)

	out["steady_allocs_per_call"] = allocProbe(h, ps, hier)

	if hier != nil {
		amgProbe(h, hier, pool, out)
	}
	return out
}

// sweepProbe runs every kernel of every format on every matrix, pooled at
// the tuner's thread count. It reports the fastest kernel per format and
// the share of matrices whose tuned operator runs within 5% of the fastest
// kernel of any format.
func sweepProbe(h *harness, ps []probe, lib *kernels.Library[float64], pool *kernels.Pool[float64], out map[string]float64) {
	perFormat := map[matrix.Format][]float64{}
	within := 0
	for _, p := range ps {
		m, nnz := p.in.m, float64(max(p.in.m.NNZ(), 1))
		y := make([]float64, m.Rows)
		reps := repsFor(m.NNZ())
		runtime.GC()
		best := math.Inf(1)
		for _, f := range matrix.Formats {
			mat, err := kernels.Convert(m, f, h.model.MaxFill)
			if err != nil {
				continue
			}
			fb := math.Inf(1)
			for _, k := range lib.ForFormat(f) {
				fb = min(fb, timeMedian(reps, func() { k.RunPooled(mat, p.in.x, y, pool) }))
			}
			perFormat[f] = append(perFormat[f], fb*1e9/nnz)
			best = min(best, fb)
		}
		tuned := timeMedian(reps, func() { p.op.MulVec(p.in.x, y) })
		if tuned <= 1.05*best {
			within++
		}
	}
	for _, f := range matrix.Formats {
		out["kernels.spmv_ns_per_nnz."+f.String()] = geomean(perFormat[f])
	}
	out["autotune.decision_best_ratio"] = ratio(float64(within), float64(len(ps)))
}

// kernelProbe times each tuned kernel serially (Run at one thread) and
// pooled (RunPooled at the tuner's thread count) on its chosen format, and
// its batched kernel at width 8.
func kernelProbe(h *harness, ps []probe, lib *kernels.Library[float64], pool *kernels.Pool[float64], out map[string]float64) {
	var serial, pooled, eff, spmm []float64
	for _, p := range ps {
		k := lib.Lookup(p.dec.Kernel)
		if k == nil || k.Format != p.mat.Format {
			continue
		}
		m, nnz := p.in.m, float64(max(p.in.m.NNZ(), 1))
		y := make([]float64, m.Rows)
		reps := repsFor(m.NNZ())
		runtime.GC()
		s := timeMedian(reps, func() { k.Run(p.mat, p.in.x, y, 1) })
		q := timeMedian(reps, func() { k.RunPooled(p.mat, p.in.x, y, pool) })
		serial, pooled = append(serial, s*1e9/nnz), append(pooled, q*1e9/nnz)
		eff = append(eff, s/(q*float64(h.threads)))
		if bk := lib.BatchForParams(p.mat.Format, p.dec.Params); bk != nil {
			xb, yb := make([]float64, m.Cols*blockK), make([]float64, m.Rows*blockK)
			for i := range xb {
				xb[i] = p.in.x[i/blockK]
			}
			b := timeMedian(reps, func() { bk.RunPooled(p.mat, xb, yb, blockK, pool) })
			spmm = append(spmm, b*1e9/(nnz*blockK))
		}
	}
	out["kernels.spmv_serial_ns_per_nnz"] = geomean(serial)
	out["kernels.spmv_pooled_ns_per_nnz"] = geomean(pooled)
	out["kernels.parallel_efficiency"] = geomean(eff)
	out["kernels.spmm_ns_per_nnz_rhs"] = geomean(spmm)
}

// matBytes is the size of a matrix's arrays plus x and y, in bytes.
func matBytes(m *kernels.Mat[float64]) float64 {
	const w = 8 // bytes per float64 and per int index
	rows, cols := m.Dims()
	n := rows + cols
	switch m.Format {
	case matrix.FormatCSR:
		n += len(m.CSR.Vals) + len(m.CSR.ColIdx) + len(m.CSR.RowPtr)
	case matrix.FormatCOO:
		n += len(m.COO.Vals) + len(m.COO.ColIdx) + len(m.COO.RowIdx)
	case matrix.FormatDIA:
		n += len(m.DIA.Data) + len(m.DIA.Offsets)
	case matrix.FormatELL:
		n += len(m.ELL.Data) + len(m.ELL.ColIdx)
	case matrix.FormatHYB:
		n += len(m.HYB.ELL.Data) + len(m.HYB.ELL.ColIdx) + 3*len(m.HYB.COO.Vals)
	case matrix.FormatBCSR:
		n += len(m.BCSR.Blocks) + len(m.BCSR.ColIdx) + len(m.BCSR.RowPtr)
	}
	return float64(n * w)
}

// allocProbe counts heap allocations per steady call: MulVec and an
// 8-wide MulVecBatch (x in every column) on every operator, and a repeated
// SolvePCG when the workload has a hierarchy. The expected count is 0. The
// last output of each product is checked against the reference.
func allocProbe(h *harness, ps []probe, hier *amg.Hierarchy[float64]) float64 {
	const calls = 64
	var worst float64
	var ms runtime.MemStats
	measure := func(f func()) {
		f() // warm: first calls may size scratch space
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for i := 0; i < calls; i++ {
			f()
		}
		runtime.ReadMemStats(&ms)
		worst = max(worst, float64(ms.Mallocs-before)/calls)
	}
	for _, p := range ps {
		m := p.in.m
		y := make([]float64, m.Rows)
		xb, yb := make([]float64, m.Cols*blockK), make([]float64, m.Rows*blockK)
		for i := range xb {
			xb[i] = p.in.x[i/blockK]
		}
		poison(y)
		poison(yb)
		measure(func() { p.op.MulVec(p.in.x, y) })
		measure(func() { p.op.MulVecBatch(xb, yb, blockK) })
		h.checkProduct(p.in, y, "MulVec output (alloc probe)")
		ok := true
		for j := 0; j < blockK; j++ {
			ok = ok && p.in.ref.matchesColumn(yb, blockK, j)
		}
		h.check(ok, p.in.name+": MulVecBatch output (alloc probe)")
	}
	if hier != nil {
		n := hier.Levels[0].A.Rows
		b, x := make([]float64, n), make([]float64, n)
		for i := range b {
			b[i] = 1
		}
		measure(func() { clear(x); hier.SolvePCG(b, x, solveTol, 200) })
	}
	return worst
}

// amgProbe times the Galerkin products of the hierarchy's levels, one
// V-cycle, and the solver BLAS-1 kernels on the fine level's length.
func amgProbe(h *harness, hier *amg.Hierarchy[float64], pool *kernels.Pool[float64], out map[string]float64) {
	runtime.GC()
	out["kernels.galerkin_s"] = timeMedian(3, func() {
		for _, l := range hier.Levels {
			if l.P != nil {
				kernels.GalerkinRAP(l.R, l.A, l.P, pool, h.threads)
			}
		}
	})
	n := hier.Levels[0].A.Rows
	b, x := make([]float64, n), make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	runtime.GC()
	out["amg.vcycle_s"] = timeMedian(9, func() { clear(x); hier.VCycle(b, x) })
	out["solve.blas1_ns_per_elem"] = timeMedian(201, func() {
		solve.Dot(b, x)
		solve.Norm2(b)
	}) * 1e9 / float64(2*n)
}
