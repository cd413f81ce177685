package kernels_test

import (
	"testing"

	"smat/internal/kernels"
	"smat/internal/matrix"
	"smat/internal/oracle"
)

// noParallelInstance lists the serial kernels Library.Parallel returns
// unchanged: the column-major DIA/ELL traversals (their parallel siblings
// are row-major, a different algorithm) and the extension formats' basic
// kernels.
var noParallelInstance = map[string]bool{
	"dia_basic":   true,
	"dia_unroll4": true,
	"ell_basic":   true,
	"ell_unroll4": true,
	"hyb_basic":   true,
	"bcsr_basic":  true,
}

func fullLibrary() *kernels.Library[float64] {
	lib := kernels.NewLibrary[float64]()
	lib.RegisterHYB()
	lib.RegisterBCSR()
	return lib
}

var allFormats = append(append([]matrix.Format{}, matrix.Formats[:]...), matrix.FormatHYB, matrix.FormatBCSR)

// TestEveryKernelHasParallelInstance pins Library.Parallel's rule on every
// registered kernel: a serial kernel maps to the kernel with the same
// format, the same Params and its strategies plus StratParallel (COO: plus
// StratNNZBalance too), unless it is on the explicit no-instance list; a
// parallel kernel maps to itself.
func TestEveryKernelHasParallelInstance(t *testing.T) {
	lib := fullLibrary()
	listed := map[string]bool{}
	for _, f := range allFormats {
		for _, k := range lib.ForFormat(f) {
			p := lib.Parallel(k)
			if k.Strategies&kernels.StratParallel != 0 {
				if p != k {
					t.Errorf("Parallel(%s) = %s, want the parallel kernel itself", k.Name, p.Name)
				}
				continue
			}
			if noParallelInstance[k.Name] {
				listed[k.Name] = true
				if p != k {
					t.Errorf("Parallel(%s) = %s, but %s is listed as having no parallel instance", k.Name, p.Name, k.Name)
				}
				continue
			}
			if p == k {
				t.Errorf("serial kernel %s has no parallel instance and is not listed in noParallelInstance", k.Name)
				continue
			}
			want := k.Strategies | kernels.StratParallel
			ok := p.Strategies == want || (f == matrix.FormatCOO && p.Strategies == want|kernels.StratNNZBalance)
			if !ok || p.Format != k.Format || p.Params != k.Params {
				t.Errorf("Parallel(%s) = %s (%v, %v, %v), want format %v, params %v, strategies %v",
					k.Name, p.Name, p.Format, p.Params, p.Strategies, k.Format, k.Params, want)
			}
		}
	}
	for name := range noParallelInstance {
		if !listed[name] {
			t.Errorf("noParallelInstance lists %s, which is not a registered serial kernel", name)
		}
	}
	if lib.Parallel(nil) != nil {
		t.Error("Parallel(nil) != nil")
	}
}

// TestParallelInstanceBitForBitOnOracleSpecs: a tuner swaps a model's
// serial kernel for its parallel instance, so the two must agree bit for
// bit on every oracle spec, at every thread count, pooled and spawned. The
// input vector is non-integral, so any change in summation order shows.
func TestParallelInstanceBitForBitOnOracleSpecs(t *testing.T) {
	lib := fullLibrary()
	threadCounts := []int{1, 2, 3, 8}
	pools := map[int]*kernels.Pool[float64]{}
	for _, th := range threadCounts {
		pools[th] = kernels.NewPool[float64](th)
		defer pools[th].Close()
	}
	specs := oracle.Specs()
	checked := 0
	for i := range specs {
		s := &specs[i]
		m, err := oracle.BuildCSR[float64](s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		x := make([]float64, m.Cols)
		for j := range x {
			x[j] = 1 / float64(3+j%11)
		}
		for _, f := range allFormats {
			mat, err := kernels.Convert(m, f, 8)
			if err != nil {
				continue // fill guard: format unsuitable for this shape
			}
			for _, k := range lib.ForFormat(f) {
				p := lib.Parallel(k)
				if p == k {
					continue
				}
				want := make([]float64, m.Rows)
				k.Run(mat, x, want, 1)
				for _, th := range threadCounts {
					for _, pooled := range []bool{false, true} {
						y := make([]float64, m.Rows)
						for j := range y {
							y[j] = 123 // must be fully overwritten
						}
						if pooled {
							p.RunPooled(mat, x, y, pools[th])
						} else {
							p.Run(mat, x, y, th)
						}
						for j := range y {
							if y[j] != want[j] {
								t.Fatalf("%s: %s vs serial %s, threads=%d pooled=%v: y[%d] = %v, want %v",
									s.Name, p.Name, k.Name, th, pooled, j, y[j], want[j])
							}
						}
					}
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no serial kernel with a parallel instance was checked")
	}
}
