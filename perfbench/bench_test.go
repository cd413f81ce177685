package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"

	"smat"
	"smat/internal/gen"
	"smat/internal/refblas"
	"smat/internal/solve"
)

func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95},
		{199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {20, 50}, {5, 50},
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[c.n-1-i] = float64(i) // descending, so the rule must sort
		}
		p, v := tailPercentile(xs)
		if p != c.want {
			t.Errorf("n=%d: percentile %v, want %v", c.n, p, c.want)
		}
		if beyond := c.n - int(math.Ceil(v)); c.n >= 20 && beyond < 10-1 {
			t.Errorf("n=%d: value %v leaves %d samples beyond it", c.n, v, beyond)
		}
	}
}

func TestSelfTimeOfNestedSpans(t *testing.T) {
	// round [0,100] ⊃ A [10,30], B [40,70] ⊃ C [45,50]; D [60,90] overlaps
	// B's end and is B's child only up to B's end.
	spans := []span{
		{Name: "round", Start: 0, End: 100, Parent: -1},
		{Name: "A", Start: 10, End: 30, Parent: 0},
		{Name: "B", Start: 40, End: 70, Parent: 0},
		{Name: "C", Start: 45, End: 50, Parent: 2},
		{Name: "D", Start: 60, End: 90, Parent: 2},
	}
	got := selfTimes(spans)
	want := []int64{100 - 20 - 30, 20, 30 - 5 - 10, 5, 30}
	if !slices.Equal(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerNestsAndAggregates(t *testing.T) {
	tr := newTracer()
	tr.on, tr.run = true, 3
	root := tr.begin("round")
	for i := 0; i < 2; i++ {
		m := tr.begin("CG")
		for j := 0; j < 3; j++ {
			tr.end(tr.beginNNZ("MulVec", 10))
		}
		tr.end(m)
	}
	tune := tr.begin("Tune")
	tr.note(tune, "fallback")
	tr.end(tune)
	tr.end(root)
	tr.on = false
	tr.end(tr.begin("untraced")) // timed, not recorded

	if len(tr.spans) != 10 {
		t.Fatalf("%d spans recorded, want 10", len(tr.spans))
	}
	for _, s := range tr.spans {
		if s.End < s.Start || s.Run != 3 {
			t.Fatalf("bad span %+v", s)
		}
		if s.Name == "MulVec" && tr.spans[s.Parent].Name != "CG" {
			t.Fatalf("MulVec parent is %q", tr.spans[s.Parent].Name)
		}
	}
	lt := layerTimes(tr.spans)[3]
	if lt["MulVec"].count != 6 || lt["CG"].count != 2 || lt["Tune/fallback"].count != 1 {
		t.Fatalf("counts: MulVec %d CG %d Tune/fallback %d", lt["MulVec"].count, lt["CG"].count, lt["Tune/fallback"].count)
	}
	cg := lt["CG"]
	if d := cg.total - cg.self - lt["MulVec"].total; math.Abs(d) > 1e-12 {
		t.Fatalf("CG self %v + children %v != total %v", cg.self, lt["MulVec"].total, cg.total)
	}
}

func TestVerifierRejectsPerturbedOutput(t *testing.T) {
	m := gen.RandomUniform[float64](300, 200, 6, rand.New(rand.NewSource(1)))
	x := seedX(rand.New(rand.NewSource(2)), m.Cols)
	ref := newReference(m, x)
	y := make([]float64, m.Rows)
	refblas.New[float64](2).CSRGeMV(m, x, y)
	if !ref.matches(y) {
		t.Fatal("correct product rejected")
	}
	for _, bad := range []func(y []float64){
		func(y []float64) { y[17] *= 1 + 1e-9 },
		func(y []float64) { y[0] += m.Vals[0] * x[m.ColIdx[0]] }, // a term counted twice
		func(y []float64) { y[m.Rows-1] = math.NaN() },
	} {
		z := slices.Clone(y)
		bad(z)
		if ref.matches(z) {
			t.Error("perturbed product accepted")
		}
	}
	if ref.matches(y[:len(y)-1]) {
		t.Error("short product accepted")
	}
	z := slices.Clone(y)
	z[5] = math.Nextafter(z[5], math.Inf(1)) // one rounding off: within the bound
	if !ref.matches(z) {
		t.Error("one-ulp difference rejected")
	}

	// The interleaved-column check reads column j only.
	const k = 3
	yb := make([]float64, m.Rows*k)
	for i, v := range y {
		yb[i*k+1] = v
	}
	if !ref.matchesColumn(yb, k, 1) || ref.matchesColumn(yb, k, 0) {
		t.Error("column check reads the wrong column")
	}
}

func TestCheckProductCountsWithoutAllocating(t *testing.T) {
	m := gen.RandomUniform[float64](80, 60, 4, rand.New(rand.NewSource(3)))
	x := seedX(rand.New(rand.NewSource(4)), m.Cols)
	in := &input{name: "m", m: m, x: x, y: make([]float64, m.Rows), ref: newReference(m, x)}
	refblas.New[float64](1).CSRGeMV(m, x, in.y)
	h := &harness{}
	if a := testing.AllocsPerRun(100, func() { h.checkProduct(in, in.y, "MulVec output") }); a != 0 {
		t.Fatalf("a passing check allocates %v times", a)
	}
	in.y[3] = math.NaN()
	h.checkProduct(in, in.y, "MulVec output")
	if h.failed != 1 || len(h.failures) != 1 || h.failures[0] != "m: MulVec output" {
		t.Fatalf("miss recorded as failed=%d failures=%q", h.failed, h.failures)
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	names := func(seed int64) []string {
		var out []string
		for _, e := range coldTuneEntries(seed) {
			out = append(out, fmt.Sprint(e.Name, "@", e.Seed))
		}
		return out
	}
	if !slices.Equal(names(1), names(1)) {
		t.Fatal("same seed, different cold-tune matrices")
	}
	if slices.Equal(names(1), names(2)) {
		t.Fatal("different seeds, same cold-tune corpus sample")
	}
	if n := len(coldTuneEntries(1)); n < 16+2376/sampleStride {
		t.Fatalf("cold-tune has %d matrices", n)
	}

	nnz := []int{50, 10, 40, 30, 20, 60, 70}
	a := assignLifetimes(nnz, rand.New(rand.NewSource(9)))
	if !slices.Equal(a, assignLifetimes(nnz, rand.New(rand.NewSource(9)))) {
		t.Fatal("same seed, different lifetimes")
	}
	// Ranked by nnz the matrices are 1,4,3 | 2,0,5 | 6: each full triple
	// holds every lifetime once.
	for _, triple := range [][]int{{1, 4, 3}, {2, 0, 5}} {
		got := []int{a[triple[0]], a[triple[1]], a[triple[2]]}
		slices.Sort(got)
		if !slices.Equal(got, lifetimes) {
			t.Fatalf("triple %v got lifetimes %v", triple, got)
		}
	}
	if !slices.Contains(lifetimes, a[6]) {
		t.Fatalf("lifetime %d not drawn from %v", a[6], lifetimes)
	}
}

func TestSeedDeterminesSolveIterations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the solve workload")
	}
	h := &harness{model: smat.HeuristicModel(), threads: 2, lib: refblas.New[float64](2), tr: newTracer()}
	iters := func(seed int64) (int, []float64) {
		w, err := newSolveWorkload(h, seed)
		if err != nil {
			t.Fatal(err)
		}
		defer w.close()
		x := make([]float64, len(w.b))
		st, err := solve.CG[float64](&csrOp{lib: h.lib, m: w.cg.m}, nil, w.b, x, solveTol, 20*cgGrid)
		if err != nil || !st.Converged {
			t.Fatalf("seed %d: CG did not converge: %v", seed, err)
		}
		return st.Iterations, w.b
	}
	i1, b1 := iters(5)
	i2, b2 := iters(5)
	_, b3 := iters(6)
	if i1 != i2 || !slices.Equal(b1, b2) {
		t.Fatalf("same seed: %d vs %d iterations", i1, i2)
	}
	if slices.Equal(b1, b3) {
		t.Fatal("different seeds, same right-hand side")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json, which declares the
// benchmark's workloads and metrics, in step with what the program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	if !slices.Equal(wl, workloadNames) {
		t.Errorf("workloads %v, program has %v", wl, workloadNames)
	}
	check := func(kind string, got []metricSpec, specs []metricSpec) {
		if !slices.Equal(got, specs) {
			t.Errorf("%s: BENCHMARK.json has %v, program reports %v", kind, got, specs)
		}
	}
	var e2e, layer []metricSpec
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricSpec{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)
}
