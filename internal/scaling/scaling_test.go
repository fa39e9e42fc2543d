package scaling

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/vec"
)

func gaussianGen(n, dim int, seed int64) *vec.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := vec.NewMatrix(n, dim)
	for i := 0; i < n; i++ {
		for d := 0; d < dim; d++ {
			m.Row(i)[d] = float32(rng.NormFloat64())
		}
	}
	return m
}

func TestFitExactLine(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{3, 5, 7, 9} // y = 2x + 1
	f := Fit(x, y)
	if math.Abs(f.Slope-2) > 1e-9 || math.Abs(f.Intercept-1) > 1e-9 {
		t.Fatalf("fit = %+v, want slope 2 intercept 1", f)
	}
	if f.R2 < 0.999999 {
		t.Fatalf("R2 = %v for exact line", f.R2)
	}
}

func TestFitConstant(t *testing.T) {
	f := Fit([]float64{1, 2, 3}, []float64{5, 5, 5})
	if math.Abs(f.Slope) > 1e-9 || math.Abs(f.Intercept-5) > 1e-9 {
		t.Fatalf("constant fit = %+v", f)
	}
}

func TestFitDegenerate(t *testing.T) {
	// All x equal: slope falls back to 0, intercept to the mean.
	f := Fit([]float64{2, 2, 2}, []float64{1, 2, 3})
	if f.Slope != 0 || math.Abs(f.Intercept-2) > 1e-9 {
		t.Fatalf("degenerate fit = %+v", f)
	}
}

func TestFitPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Fit([]float64{1}, []float64{1, 2})
}

// Property: residuals of the fitted line are no larger than those of any
// perturbed line (least-squares optimality, spot-checked).
func TestFitIsLeastSquares(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 3
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(i) + rng.Float64()
			y[i] = 3*x[i] + 2 + rng.NormFloat64()
		}
		fit := Fit(x, y)
		ss := func(slope, intercept float64) float64 {
			var s float64
			for i := range x {
				r := y[i] - (slope*x[i] + intercept)
				s += r * r
			}
			return s
		}
		best := ss(fit.Slope, fit.Intercept)
		for _, d := range []float64{-0.1, 0.1} {
			if ss(fit.Slope+d, fit.Intercept) < best-1e-9 {
				return false
			}
			if ss(fit.Slope, fit.Intercept+d) < best-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCalibrateVerifiesLinearScaling(t *testing.T) {
	// The Fig. 7 claim: IVF memory and latency scale ~linearly in
	// datastore size for the real implementation.
	m, err := Calibrate(SweepConfig{
		Dim:     16,
		Sizes:   []int{1000, 2000, 4000, 8000},
		Queries: 32,
		Repeats: 5,
		Seed:    1,
	}, gaussianGen)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Points) != 4 {
		t.Fatalf("got %d points", len(m.Points))
	}
	for _, p := range m.Points {
		if !p.Measured {
			t.Fatal("sweep points must be marked measured")
		}
		if p.LatencyPerQuery <= 0 || p.MemoryBytes <= 0 {
			t.Fatalf("degenerate point %+v", p)
		}
	}
	if !m.IsLinear(0.85) {
		t.Fatalf("scaling not linear: latency R2=%v memory R2=%v", m.LatencyFit.R2, m.MemoryFit.R2)
	}
	if m.BytesPerToken() <= 0 {
		t.Fatalf("BytesPerToken = %v", m.BytesPerToken())
	}
}

func TestCalibrateErrors(t *testing.T) {
	if _, err := Calibrate(SweepConfig{Dim: 4, Sizes: []int{100}}, gaussianGen); err == nil {
		t.Fatal("single-size sweep should error")
	}
}

// TestExtrapolateMonotone checks the extrapolation, not the host: a fake
// clock whose per-read step gen sets from the sweep size (1 µs per vector)
// stands in for wall time, so the fitted latency grows with size however
// fast or loaded the machine is.
func TestExtrapolateMonotone(t *testing.T) {
	saved := now
	defer func() { now = saved }()
	const queries = 16
	var ticks, step time.Duration
	now = func() time.Time {
		ticks += step
		return time.Unix(0, 0).Add(ticks)
	}
	gen := func(n, dim int, seed int64) *vec.Matrix {
		if n != queries {
			step = time.Duration(n) * time.Microsecond
		}
		return gaussianGen(n, dim, seed)
	}
	m, err := Calibrate(SweepConfig{Dim: 8, Sizes: []int{500, 1000, 2000}, Queries: queries, Seed: 2}, gen)
	if err != nil {
		t.Fatal(err)
	}
	small := m.Extrapolate(1_000_000)
	big := m.Extrapolate(10_000_000)
	if small.Measured || big.Measured {
		t.Fatal("extrapolations must not be marked measured")
	}
	if big.LatencyPerQuery <= small.LatencyPerQuery {
		t.Fatalf("extrapolated latency not increasing: %v vs %v", big.LatencyPerQuery, small.LatencyPerQuery)
	}
	if big.MemoryBytes <= small.MemoryBytes {
		t.Fatal("extrapolated memory not increasing")
	}
	// 10x tokens ≈ 10x memory (linear, intercept small).
	ratio := float64(big.MemoryBytes) / float64(small.MemoryBytes)
	if ratio < 5 || ratio > 15 {
		t.Fatalf("memory extrapolation ratio %v, want ~10", ratio)
	}
}

func TestExtrapolateClampsNegative(t *testing.T) {
	m := &Model{
		LatencyFit: LinearFit{Slope: 1e-12, Intercept: -1},
		MemoryFit:  LinearFit{Slope: 1, Intercept: -1e9},
	}
	p := m.Extrapolate(10)
	if p.LatencyPerQuery != time.Duration(0) || p.MemoryBytes != 0 {
		t.Fatalf("negative predictions must clamp to 0: %+v", p)
	}
}
