package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"smat"
	"smat/internal/amg"
	"smat/internal/corpus"
	"smat/internal/features"
	"smat/internal/matrix"
)

const (
	// corpusScale shrinks the paper's matrix dimensions; at 0.25 the
	// representatives hold 12k–640k nonzeros each.
	corpusScale = 0.25
	// sampleStride picks every 48th corpus entry (about 50 of 2376) from a
	// seeded offset.
	sampleStride = 48
	// stepCalls is the MulVec count per matrix per timestep.
	stepCalls = 32
)

// lifetimes are the MulVec counts a cold-tune matrix may be tuned for.
var lifetimes = []int{1, 16, 64}

// workload is one named call sequence. prepare makes the next round's
// inputs outside all timing; round runs the sequence and its baselines;
// targets hands the latest round's operators to the isolated probes.
type workload interface {
	prepare(h *harness) error
	round(h *harness) roundResult
	targets() ([]*input, []*smat.Operator[float64], *amg.Hierarchy[float64])
	close()
}

// seedX returns a vector of values in [0.5, 1.5) from rng.
func seedX(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.5 + rng.Float64()
	}
	return x
}

// coldTuneEntries returns the cold-tune matrices: the 16 Table-3
// representatives, then every sampleStride-th entry of the seed's corpus
// from a seeded offset.
func coldTuneEntries(seed int64) []*corpus.Entry {
	entries := corpus.Representatives(corpusScale)
	all := corpus.New(corpusScale, seed).Entries
	off := rand.New(rand.NewSource(seed)).Intn(sampleStride)
	for i := off; i < len(all); i += sampleStride {
		entries = append(entries, all[i])
	}
	return entries
}

// assignLifetimes draws each matrix's lifetime from lifetimes. Matrices
// are ranked by nnz and each consecutive triple gets a seeded permutation of
// the three lifetimes; among such draws the first whose call work Σ nnz·k is
// within workTolerance of the expected Σ nnz·mean(k) is kept (the closest,
// if none is). So every matrix's lifetime varies with the seed while the
// work of a round barely does.
func assignLifetimes(nnz []int, rng *rand.Rand) []int {
	order := make([]int, len(nnz))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return nnz[order[a]] < nnz[order[b]] })
	var mean, target float64
	for _, k := range lifetimes {
		mean += float64(k) / float64(len(lifetimes))
	}
	for _, n := range nnz {
		target += float64(n) * mean
	}
	var best []int
	bestDev := math.Inf(1)
	for try := 0; try < 1000 && bestDev > workTolerance; try++ {
		out := make([]int, len(nnz))
		var work float64
		for g := 0; g < len(order); g += len(lifetimes) {
			perm := rng.Perm(len(lifetimes))
			for j := 0; j < len(lifetimes) && g+j < len(order); j++ {
				i := order[g+j]
				out[i] = lifetimes[perm[j]]
				work += float64(nnz[i] * out[i])
			}
		}
		if dev := math.Abs(work/target - 1); dev < bestDev {
			best, bestDev = out, dev
		}
	}
	return best
}

// workTolerance bounds how far a round's call work may stray from its
// expectation across seeds.
const workTolerance = 0.02

// spmvWorkload is cold-tune and timestep: a list of matrices, each given an
// operator life per round on the SMAT side and the same calls on the
// baselines.
type spmvWorkload struct {
	inputs []*input
	seed   int64

	// timestep keeps one tuner for the run and re-assembles the values
	// before every round; cold-tune builds a fresh tuner per round.
	timestep bool
	base     [][]float64 // timestep: the assembled values of step 0
	step     int

	tuner *smat.Tuner[float64] // latest round's tuner, open until the probes ran
	ops   []*smat.Operator[float64]
	stats smat.CacheStats // tuner counters at the end of the previous round
}

func newSpmvWorkload(h *harness, seed int64, timestep bool) (*spmvWorkload, error) {
	w := &spmvWorkload{seed: seed, timestep: timestep}
	var entries []*corpus.Entry
	if timestep {
		entries = corpus.Representatives(corpusScale)
	} else {
		entries = coldTuneEntries(seed)
	}
	var ms []*matrix.CSR[float64]
	var nnz []int
	var names []string
	seen := map[features.Key]bool{}
	for _, e := range entries {
		m := e.Matrix()
		if !timestep {
			// Keep one matrix per decision-cache key, so every cold-tune
			// Tune is a miss: the workload is the cache's write side.
			f := features.Extract(m)
			if seen[f.Key()] {
				continue
			}
			seen[f.Key()] = true
		}
		ms, nnz, names = append(ms, m), append(nnz, m.NNZ()), append(names, e.Name)
	}
	rng := rand.New(rand.NewSource(seed*7919 + 1))
	calls := assignLifetimes(nnz, rng)
	for i, m := range ms {
		if timestep {
			calls[i] = stepCalls
			w.base = append(w.base, m.Vals)
		}
		in, err := newInput(h, names[i], m, seedX(rng, m.Cols), calls[i])
		if err != nil {
			return nil, err
		}
		w.inputs = append(w.inputs, in)
	}
	if timestep {
		w.tuner = smat.NewTuner[float64](h.model, smat.WithThreads(h.threads))
	}
	return w, nil
}

// prepare re-assembles every timestep matrix with new seeded values (same
// structure, so Tune is a decision-cache hit after the first step).
func (w *spmvWorkload) prepare(h *harness) error {
	if !w.timestep {
		return nil
	}
	w.step++
	for i, in := range w.inputs {
		rng := rand.New(rand.NewSource(w.seed*1_000_003 + int64(w.step)*1009 + int64(i)))
		vals := make([]float64, len(w.base[i]))
		for j, v := range w.base[i] {
			vals[j] = v * (0.5 + rng.Float64())
		}
		m := &matrix.CSR[float64]{Rows: in.m.Rows, Cols: in.m.Cols, RowPtr: in.m.RowPtr, ColIdx: in.m.ColIdx, Vals: vals}
		if err := in.setValues(h, m); err != nil {
			return fmt.Errorf("timestep %d: %w", w.step, err)
		}
	}
	return nil
}

func (w *spmvWorkload) round(h *harness) roundResult {
	res := roundResult{callNs: make([]float64, 0, len(w.inputs))}
	if !w.timestep {
		w.closeTuner()
		w.tuner = smat.NewTuner[float64](h.model, smat.WithThreads(h.threads))
		w.stats = smat.CacheStats{}
	}
	w.ops = w.ops[:0]
	for i, in := range w.inputs {
		s := h.pair(w.tuner, in, i, w.timestep, &res)
		w.ops = append(w.ops, s.op)
	}
	st := w.tuner.Stats()
	res.cacheHits, res.cacheMisses = st.Hits-w.stats.Hits, st.Misses-w.stats.Misses
	w.stats = st
	return res
}

func (w *spmvWorkload) targets() ([]*input, []*smat.Operator[float64], *amg.Hierarchy[float64]) {
	return w.inputs, w.ops, nil
}

func (w *spmvWorkload) close() { w.closeTuner() }

func (w *spmvWorkload) closeTuner() {
	if w.tuner != nil {
		w.tuner.Close()
		w.tuner = nil
	}
}
