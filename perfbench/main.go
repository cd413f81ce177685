// Command perfbench is the repository's benchmark: it runs one named
// workload for a fixed time against the public smat API, checks every
// output against an independent reference, and prints one JSON result line.
//
//	go run . --workload cold-tune --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured with no
// span recording. With --trace 1 untraced and traced rounds alternate; the
// result holds the per-layer metrics, taken from the spans of the traced
// rounds and from isolated probes run after them, and the spans are written
// to a JSON-lines file. README.md maps every metric to its layer.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"smat"
	"smat/internal/refblas"
)

// metricSpec names a reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of an untraced run, on every workload.
var endToEnd = []metricSpec{
	{"time_to_result_s", "s"},
	{"setup_s", "s"},
	{"spmv_gflops", "GFLOP/s"},
	{"call_p50_ns_per_nnz", "ns/nnz"},
	{"speedup_vs_best_fixed", "x"},
	{"speedup_vs_csr", "x"},
	{"tune_overhead_x_csr", "x"},
	{"setup_alloc_mb", "MB"},
}

// perLayer are the metrics of a traced run, on every workload; a layer a
// workload does not reach reports 0.
var perLayer = []metricSpec{
	{"features.extract_s", "s"},
	{"features.extract_ns_per_nnz", "ns/nnz"},
	{"autotune.tune_s", "s"},
	{"autotune.tune_predicted_s", "s"},
	{"autotune.tune_fallback_s", "s"},
	{"autotune.tune_cache_hit_s", "s"},
	{"autotune.fallback_calls", "count"},
	{"autotune.cache_hits", "count"},
	{"autotune.cache_misses", "count"},
	{"autotune.convert_wait_s", "s"},
	{"autotune.calls_before_swap", "count"},
	{"autotune.amortized_calls", "count"},
	{"autotune.convert_failed", "count"},
	{"autotune.decision_best_ratio", "ratio"},
	{"kernels.convert_s", "s"},
	{"kernels.convert_ns_per_nnz", "ns/nnz"},
	{"kernels.plan_s", "s"},
	{"kernels.dispatch_ns", "ns"},
	{"kernels.spmv_ns_per_nnz.CSR", "ns/nnz"},
	{"kernels.spmv_ns_per_nnz.COO", "ns/nnz"},
	{"kernels.spmv_ns_per_nnz.DIA", "ns/nnz"},
	{"kernels.spmv_ns_per_nnz.ELL", "ns/nnz"},
	{"kernels.spmv_serial_ns_per_nnz", "ns/nnz"},
	{"kernels.spmv_pooled_ns_per_nnz", "ns/nnz"},
	{"kernels.parallel_efficiency", "ratio"},
	{"kernels.call_p99_ns_per_nnz", "ns/nnz"},
	{"kernels.spmm_ns_per_nnz_rhs", "ns/nnz"},
	{"kernels.galerkin_s", "s"},
	{"kernels.bytes_per_flop_computed", "B/flop"},
	{"solve.cg_s", "s"},
	{"solve.cg_iterations", "count"},
	{"solve.blockcg_s", "s"},
	{"solve.blockcg_iterations", "count"},
	{"solve.blockcg_per_rhs_s", "s"},
	{"solve.self_s", "s"},
	{"solve.operator_share", "ratio"},
	{"solve.blas1_ns_per_elem", "ns"},
	{"amg.setup_s", "s"},
	{"amg.levels", "count"},
	{"amg.operator_complexity", "ratio"},
	{"amg.bind_s", "s"},
	{"amg.pcg_s", "s"},
	{"amg.pcg_iterations", "count"},
	{"amg.pcg_self_s", "s"},
	{"amg.vcycle_s", "s"},
	{"refblas.csr_ns_per_nnz", "ns/nnz"},
	{"refblas.best_fixed_ns_per_nnz", "ns/nnz"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_s", "s"},
	{"go.alloc_mb", "MB"},
	{"trace.overhead_ratio", "ratio"},
	{"failed_frac", "ratio"},
	{"steady_allocs_per_call", "count"},
	{"solve_iterations", "count"},
}

var workloadNames = []string{"cold-tune", "timestep", "solve"}

// shareSpans are, per workload, the spans of the timed call sequence whose
// share of the traced time_to_result_s the details line of a traced run
// reports, to show which layer does the work. On solve, the level Tunes
// also count inside Bind.
var shareSpans = map[string][]string{
	"cold-tune": {"Tune", "Tune/fallback", "AwaitConversion", "MulVec"},
	"timestep":  {"Tune", "AwaitConversion", "MulVec"},
	"solve":     {"Tune", "AwaitConversion", "SetupPooled", "Bind", "CG", "BlockCG", "SolvePCG"},
}

// modelFile is the committed model every tuner loads, and traceDir where a
// traced run writes its spans; both are relative to the repository root.
const (
	modelFile = "model.json"
	traceDir  = ".bench_build/perfbench"
)

// minRounds is the fewest measured rounds a run makes, however long they take.
const minRounds = 4

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: cold-tune, timestep or solve")
	seed := fl.Int64("seed", 1, "input seed")
	seconds := fl.Float64("seconds", 20, "measured time in seconds")
	trace := fl.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	root := fl.String("root", ".", "repository root")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if err := bench(stdout, *root, *name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func bench(stdout io.Writer, root, name string, seed int64, seconds float64, traced bool) error {
	raw, err := os.ReadFile(filepath.Join(root, modelFile))
	if err != nil {
		return fmt.Errorf("model: %w", err)
	}
	model, err := smat.LoadModelFile(filepath.Join(root, modelFile))
	if err != nil {
		return fmt.Errorf("model: %w", err)
	}
	sum := sha256.Sum256(raw)
	env := newEnvelope(root, hex.EncodeToString(sum[:]))
	env.Workload, env.Seed, env.Seconds, env.Trace = name, seed, seconds, traced

	h := &harness{model: model, threads: env.Threads, lib: refblas.New[float64](env.Threads), tr: newTracer()}
	w, err := newWorkload(h, name, seed)
	if err != nil {
		return err
	}
	defer w.close()
	plain, tr, err := measure(h, w, seconds, traced)
	if err != nil {
		return err
	}

	details := map[string]any{"envelope": env, "rounds_untraced": len(plain), "rounds_traced": len(tr)}
	var values map[string]float64
	specs := endToEnd
	if traced {
		specs = perLayer
		values = perLayerValues(h, w, plain, tr, details)
		details["layer_shares"] = layerShares(h.tr.spans, tr, shareSpans[name])
		header := map[string]any{"envelope": env, "spans": len(h.tr.spans)}
		path := filepath.Join(root, traceDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := writeSpans(path, header, h.tr.spans); err != nil {
			return err
		}
		details["span_file"] = path
	} else {
		values = endToEndValues(plain)
		ttr := make([]float64, len(plain))
		for i, r := range plain {
			ttr[i] = r.ttr
		}
		details["round_time_to_result_s"] = ttr
	}
	details["failures"] = h.failures

	res := result{Correct: h.failed == 0, Attempted: h.attempted, Failed: h.failed, Metrics: map[string]metric{}}
	for _, s := range specs {
		v := values[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", s.name, v)
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(details); err != nil {
		return err
	}
	return enc.Encode(res)
}

func newWorkload(h *harness, name string, seed int64) (workload, error) {
	switch name {
	case "cold-tune":
		return newSpmvWorkload(h, seed, false)
	case "timestep":
		return newSpmvWorkload(h, seed, true)
	case "solve":
		return newSolveWorkload(h, seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// measure runs a warm-up round, then rounds until the time is up. In a
// traced run every other round records spans. The isolated probes run
// after measure returns, so they never perturb a timed round.
func measure(h *harness, w workload, seconds float64, traced bool) (plain, tr []roundResult, err error) {
	if _, err := oneRound(h, w, -1, false); err != nil {
		return nil, nil, err
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < minRounds || time.Now().Before(deadline); i++ {
		on := traced && i%2 == 1
		res, err := oneRound(h, w, i, on)
		if err != nil {
			return nil, nil, err
		}
		if on {
			tr = append(tr, res)
		} else {
			plain = append(plain, res)
		}
	}
	return plain, tr, nil
}

// oneRound prepares a round's inputs, fences with a GC, and runs it.
func oneRound(h *harness, w workload, i int, traced bool) (roundResult, error) {
	if err := w.prepare(h); err != nil {
		return roundResult{}, err
	}
	runtime.GC()
	h.round = i
	h.tr.on, h.tr.run = traced, int32(i)
	var ms0, ms1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&ms0)
	}
	root := h.tr.begin("round")
	res := w.round(h)
	h.tr.end(root)
	h.tr.on = false
	res.run = int32(i)
	if traced {
		runtime.ReadMemStats(&ms1)
		res.gcCycles = float64(ms1.NumGC - ms0.NumGC)
		res.gcPauseSec = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9
		res.allocBytes = float64(ms1.TotalAlloc - ms0.TotalAlloc)
	}
	return res, nil
}

// medianOver returns the median of f over the rounds.
func medianOver(rs []roundResult, f func(r *roundResult) float64) float64 {
	vs := make([]float64, len(rs))
	for i := range rs {
		vs[i] = f(&rs[i])
	}
	return median(vs)
}

func endToEndValues(rs []roundResult) map[string]float64 {
	return map[string]float64{
		"time_to_result_s":      medianOver(rs, func(r *roundResult) float64 { return r.ttr }),
		"setup_s":               medianOver(rs, func(r *roundResult) float64 { return r.setup }),
		"spmv_gflops":           medianOver(rs, func(r *roundResult) float64 { return ratio(r.mvFlops, r.mvSec) / 1e9 }),
		"call_p50_ns_per_nnz":   medianOver(rs, func(r *roundResult) float64 { return median(r.callNs) }),
		"speedup_vs_best_fixed": medianOver(rs, func(r *roundResult) float64 { return geomean(r.bestFixed) }),
		"speedup_vs_csr":        medianOver(rs, func(r *roundResult) float64 { return ratio(r.csrSec, r.ttr) }),
		"tune_overhead_x_csr":   medianOver(rs, func(r *roundResult) float64 { return geomean(r.tuneOverhead) }),
		"setup_alloc_mb":        medianOver(rs, func(r *roundResult) float64 { return r.setupAlloc / 1e6 }),
	}
}

// layerShares returns, for each named span, the median over traced rounds
// of its total time ÷ the round's time_to_result_s.
func layerShares(spans []span, tr []roundResult, names []string) map[string]float64 {
	lts := layerTimes(spans)
	out := map[string]float64{}
	for _, name := range names {
		out[name] = medianOver(tr, func(r *roundResult) float64 {
			var t float64
			if lt := lts[r.run][name]; lt != nil {
				t = lt.total
			}
			return ratio(t, r.ttr)
		})
	}
	return out
}

func perLayerValues(h *harness, w workload, plain, tr []roundResult, details map[string]any) map[string]float64 {
	if len(tr) == 0 {
		return map[string]float64{}
	}
	lts := layerTimes(h.tr.spans)
	total := func(name string) func(r *roundResult) float64 {
		return func(r *roundResult) float64 {
			if lt := lts[r.run][name]; lt != nil {
				return lt.total
			}
			return 0
		}
	}
	self := func(name string) func(r *roundResult) float64 {
		return func(r *roundResult) float64 {
			if lt := lts[r.run][name]; lt != nil {
				return lt.self
			}
			return 0
		}
	}
	med := func(f func(r *roundResult) float64) float64 { return medianOver(tr, f) }
	solverSpan := func(r *roundResult) float64 { return total("CG")(r) + total("BlockCG")(r) }
	solverSelf := func(r *roundResult) float64 { return self("CG")(r) + self("BlockCG")(r) }

	v := map[string]float64{
		"autotune.tune_s":            med(total("Tune")),
		"autotune.tune_predicted_s":  med(total("Tune/predicted")),
		"autotune.tune_fallback_s":   med(total("Tune/fallback")),
		"autotune.tune_cache_hit_s":  med(total("Tune/cache_hit")),
		"autotune.fallback_calls":    med(func(r *roundResult) float64 { return float64(r.fallback) }),
		"autotune.cache_hits":        med(func(r *roundResult) float64 { return float64(r.cacheHits) }),
		"autotune.cache_misses":      med(func(r *roundResult) float64 { return float64(r.cacheMisses) }),
		"autotune.convert_wait_s":    med(total("AwaitConversion")),
		"autotune.calls_before_swap": med(func(r *roundResult) float64 { return float64(r.callsBeforeSwap) }),
		"autotune.amortized_calls":   med(func(r *roundResult) float64 { return float64(r.amortized) }),
		"autotune.convert_failed":    med(func(r *roundResult) float64 { return float64(r.convertFailed) }),
		"solve.cg_s":                 med(total("CG")),
		"solve.cg_iterations":        med(func(r *roundResult) float64 { return float64(r.cgIters) }),
		"solve.blockcg_s":            med(total("BlockCG")),
		"solve.blockcg_iterations":   med(func(r *roundResult) float64 { return float64(r.blockIters) }),
		"solve.blockcg_per_rhs_s":    med(total("BlockCG")) / blockK,
		"solve.self_s":               med(solverSelf),
		"solve.operator_share":       med(func(r *roundResult) float64 { return ratio(solverSpan(r)-solverSelf(r), solverSpan(r)) }),
		"amg.setup_s":                med(total("SetupPooled")),
		"amg.levels":                 med(func(r *roundResult) float64 { return float64(r.levels) }),
		"amg.operator_complexity":    med(func(r *roundResult) float64 { return r.opComplexity }),
		"amg.bind_s":                 med(total("Bind")),
		"amg.pcg_s":                  med(total("SolvePCG")),
		"amg.pcg_iterations":         med(func(r *roundResult) float64 { return float64(r.pcgIters) }),
		"amg.pcg_self_s":             med(self("SolvePCG")),
		"refblas.csr_ns_per_nnz":     med(func(r *roundResult) float64 { return ratio(r.csrCallSec*1e9, r.csrWork) }),
		"refblas.best_fixed_ns_per_nnz": med(func(r *roundResult) float64 {
			return ratio(r.bfCallSec*1e9, r.bfWork)
		}),
		"go.gc_cycles":         med(func(r *roundResult) float64 { return r.gcCycles }),
		"go.gc_pause_s":        med(func(r *roundResult) float64 { return r.gcPauseSec }),
		"go.alloc_mb":          med(func(r *roundResult) float64 { return r.allocBytes / 1e6 }),
		"trace.overhead_ratio": ratio(med(func(r *roundResult) float64 { return r.ttr }), medianOver(plain, func(r *roundResult) float64 { return r.ttr })),
		"solve_iterations": med(func(r *roundResult) float64 {
			return float64(r.cgIters + r.blockIters + r.pcgIters)
		}),
	}

	// Per-call tail latency over every traced MulVec.
	var calls []float64
	for _, s := range h.tr.spans {
		if s.Name == "MulVec" && s.NNZ > 0 {
			calls = append(calls, float64(s.dur())/float64(s.NNZ))
		}
	}
	pct, tail := tailPercentile(calls)
	v["kernels.call_p99_ns_per_nnz"] = tail
	details["call_tail_percentile"] = pct
	details["call_tail_samples"] = len(calls)

	for k, x := range runProbes(h, w) {
		v[k] = x
	}
	v["failed_frac"] = ratio(float64(h.failed), float64(h.attempted))
	return v
}
