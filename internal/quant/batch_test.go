package quant

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// batchTolerance is the documented FP-reassociation bound between the scalar
// Distancer and the multi-lane batch kernels (DESIGN.md §8).
const batchTolerance = 1e-4

func relDiff(a, b float32) float64 {
	d := math.Abs(float64(a) - float64(b))
	scale := math.Max(math.Abs(float64(a)), math.Abs(float64(b)))
	if scale < 1 {
		scale = 1
	}
	return d / scale
}

// trainedQuantizers builds one trained instance of every scheme at dim.
// PQ/OPQ are skipped when dim is not divisible by their m.
func trainedQuantizers(t testing.TB, dim int, rng *rand.Rand) []Quantizer {
	t.Helper()
	data := vec.NewMatrix(600, dim)
	for i := range data.Data() {
		data.Data()[i] = float32(rng.NormFloat64())
	}
	qs := []Quantizer{NewFlat(dim), NewSQ(dim, 8), NewSQ(dim, 4)}
	if dim%4 == 0 {
		pq, err := NewPQ(dim, dim/4, 8, 11)
		if err != nil {
			t.Fatal(err)
		}
		opq, err := NewOPQ(dim, dim/4, 8, 13)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, pq, opq)
	}
	for _, qz := range qs {
		if err := qz.Train(data); err != nil {
			t.Fatalf("%s train: %v", qz.Name(), err)
		}
	}
	return qs
}

// TestBatchMatchesScalar is the batch/scalar equivalence property: for every
// quantizer, DistanceBatch output matches the scalar Distancer within the
// documented tolerance on random inputs, including batch lengths that are not
// multiples of any block size and dims not divisible by 4.
func TestBatchMatchesScalar(t *testing.T) {
	testBatchMatchesScalar(t)
}

// TestBatchMatchesScalarGoSQ8 holds the pure-Go sq8Scan to the same
// property on hosts where the AVX2 kernel would otherwise serve SQ8.
func TestBatchMatchesScalarGoSQ8(t *testing.T) {
	saved := sq8UseAVX2
	defer func() { sq8UseAVX2 = saved }()
	sq8UseAVX2 = false
	testBatchMatchesScalar(t)
}

func testBatchMatchesScalar(t *testing.T) {
	// 13: odd dim exercises the SQ4 nibble tail; 12: dim%8==4 exercises the
	// SQ8 kernels' four-wide tail step.
	for _, dim := range []int{6, 12, 13, 16, 64} {
		rng := rand.New(rand.NewSource(int64(dim)))
		for _, qz := range trainedQuantizers(t, dim, rng) {
			t.Run(fmt.Sprintf("%s/dim%d", qz.Name(), dim), func(t *testing.T) {
				cs := qz.CodeSize()
				for _, n := range []int{1, 3, 17, 257} { // off-block lengths
					codes := make([]byte, n*cs)
					v := make([]float32, dim)
					for i := 0; i < n; i++ {
						for d := range v {
							v[d] = float32(rng.NormFloat64())
						}
						qz.Encode(v, codes[i*cs:(i+1)*cs])
					}
					q := make([]float32, dim)
					for d := range q {
						q[d] = float32(rng.NormFloat64())
					}

					scalar := qz.NewDistancer(q)
					kernel := NewBatchDistancer(qz)
					kernel.BindQuery(q)
					out := make([]float32, n)
					kernel.DistanceBatch(codes, n, out)
					for i := 0; i < n; i++ {
						want := scalar(codes[i*cs : (i+1)*cs])
						if rd := relDiff(out[i], want); rd > batchTolerance {
							t.Fatalf("n=%d code %d: batch %v vs scalar %v (rel %v)", n, i, out[i], want, rd)
						}
						if got := kernel.Distance(codes[i*cs : (i+1)*cs]); relDiff(got, want) > batchTolerance {
							t.Fatalf("n=%d code %d: Distance %v vs scalar %v", n, i, got, want)
						}
					}
				}
			})
		}
	}
}

// sq8Paths runs f once per SQ8 scan implementation this host has: the AVX2
// kernel (when the CPU supports it) and the pure-Go sq8Scan.
func sq8Paths(t *testing.T, f func(t *testing.T)) {
	saved := sq8UseAVX2
	defer func() { sq8UseAVX2 = saved }()
	for _, useAVX2 := range []bool{true, false} {
		if useAVX2 && !vec.HasAVX2() {
			continue
		}
		sq8UseAVX2 = useAVX2
		name := "go"
		if useAVX2 {
			name = "avx2"
		}
		t.Run(name, f)
	}
}

// TestSQ8KernelBitIdentical pins the AVX2 SQ8 block kernel to the pure-Go
// reference bit for bit, for every dim%8 residue the kernel accepts and for
// code counts around its four-code groups and the scan block of 256.
func TestSQ8KernelBitIdentical(t *testing.T) {
	if !vec.HasAVX2() {
		t.Skip("no AVX2 on this host; sq8Scan is the only SQ8 path")
	}
	rng := rand.New(rand.NewSource(8))
	counts := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 33, 255, 256, 257}
	for dim := 4; dim <= 256; dim += 4 {
		qm := make([]float32, dim)
		scale := make([]float32, dim)
		for d := range qm {
			qm[d] = float32(rng.NormFloat64() * 4)
			scale[d] = float32(rng.Float64()*0.05 + 1e-3)
		}
		codes := make([]byte, counts[len(counts)-1]*dim)
		rng.Read(codes)
		for _, n := range counts {
			want := make([]float32, n+1)
			got := make([]float32, n+1)
			want[n], got[n] = -1, -1
			sq8Scan(codes, qm, scale, n, want)
			sq8ScanAVX2(codes, qm, scale, n, got)
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("dim=%d n=%d slot %d: avx2 %v != go %v", dim, n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestDistanceBatchZeroAlloc: a bound kernel's DistanceBatch allocates
// nothing, on every SQ8 path and for every native kernel.
func TestDistanceBatchZeroAlloc(t *testing.T) {
	sq8Paths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(22))
		for _, dim := range []int{12, 13, 128} {
			for _, qz := range trainedQuantizers(t, dim, rng) {
				kernel := NewBatchDistancer(qz)
				q := make([]float32, dim)
				for d := range q {
					q[d] = float32(rng.NormFloat64())
				}
				kernel.BindQuery(q)
				const n = 257
				codes := make([]byte, n*qz.CodeSize())
				out := make([]float32, n)
				if a := testing.AllocsPerRun(20, func() { kernel.DistanceBatch(codes, n, out) }); a != 0 {
					t.Fatalf("%s dim %d: DistanceBatch allocated %v times per call", qz.Name(), dim, a)
				}
			}
		}
	})
}

// TestBatchRebind checks that a kernel re-bound to a new query forgets the
// old one — the property the pooled searchers rely on.
func TestBatchRebind(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, qz := range trainedQuantizers(t, 16, rng) {
		cs := qz.CodeSize()
		v := make([]float32, 16)
		for d := range v {
			v[d] = float32(rng.NormFloat64())
		}
		code := make([]byte, cs)
		qz.Encode(v, code)

		q1 := make([]float32, 16)
		q2 := make([]float32, 16)
		for d := range q1 {
			q1[d] = float32(rng.NormFloat64())
			q2[d] = float32(rng.NormFloat64())
		}
		kernel := NewBatchDistancer(qz)
		kernel.BindQuery(q1)
		_ = kernel.Distance(code)
		kernel.BindQuery(q2)
		got := kernel.Distance(code)
		want := qz.NewDistancer(q2)(code)
		if relDiff(got, want) > batchTolerance {
			t.Fatalf("%s: rebound kernel %v vs scalar %v", qz.Name(), got, want)
		}
	}
}

// TestFlatBatchBitIdentical pins the stronger Flat contract: same lane
// structure as the scalar path means bit-identical results.
func TestFlatBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, dim := range []int{5, 8, 127} {
		f := NewFlat(dim)
		cs := f.CodeSize()
		const n = 33
		codes := make([]byte, n*cs)
		v := make([]float32, dim)
		for i := 0; i < n; i++ {
			for d := range v {
				v[d] = float32(rng.NormFloat64())
			}
			f.Encode(v, codes[i*cs:(i+1)*cs])
		}
		q := make([]float32, dim)
		for d := range q {
			q[d] = float32(rng.NormFloat64())
		}
		scalar := f.NewDistancer(q)
		kernel := NewBatchDistancer(f)
		kernel.BindQuery(q)
		out := make([]float32, n)
		kernel.DistanceBatch(codes, n, out)
		for i := 0; i < n; i++ {
			if want := scalar(codes[i*cs : (i+1)*cs]); out[i] != want {
				t.Fatalf("dim=%d code %d: %v != %v", dim, i, out[i], want)
			}
		}
	}
}

// stubQuantizer has no native batch kernel (explicit delegation rather than
// embedding, so Flat's NewBatchDistancer is not promoted); it exercises the
// scalar fallback adapter.
type stubQuantizer struct{ f *Flat }

func (s stubQuantizer) Name() string                       { return "Stub" }
func (s stubQuantizer) Dim() int                           { return s.f.Dim() }
func (s stubQuantizer) CodeSize() int                      { return s.f.CodeSize() }
func (s stubQuantizer) Train(m *vec.Matrix) error          { return s.f.Train(m) }
func (s stubQuantizer) Encode(v []float32, code []byte)    { s.f.Encode(v, code) }
func (s stubQuantizer) Decode(code []byte, out []float32)  { s.f.Decode(code, out) }
func (s stubQuantizer) NewDistancer(q []float32) Distancer { return s.f.NewDistancer(q) }

func TestScalarFallbackAdapter(t *testing.T) {
	f := NewFlat(8)
	stub := stubQuantizer{f}
	kernel := NewBatchDistancer(stub)
	if _, ok := kernel.(*scalarBatch); !ok {
		t.Fatalf("expected scalar fallback adapter, got %T", kernel)
	}
	rng := rand.New(rand.NewSource(3))
	v := make([]float32, 8)
	q := make([]float32, 8)
	for d := range v {
		v[d] = float32(rng.NormFloat64())
		q[d] = float32(rng.NormFloat64())
	}
	code := make([]byte, f.CodeSize())
	f.Encode(v, code)
	kernel.BindQuery(q)
	var out [1]float32
	kernel.DistanceBatch(code, 1, out[:])
	if want := f.NewDistancer(q)(code); out[0] != want {
		t.Fatalf("adapter %v != scalar %v", out[0], want)
	}
}

// Native kernels must allocate nothing per query for SQ/Flat (the serving
// operating points); PQ/OPQ keep their table but may not allocate either.
func TestBatchBindQueryZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, qz := range trainedQuantizers(t, 16, rng) {
		kernel := NewBatchDistancer(qz)
		q := make([]float32, 16)
		for d := range q {
			q[d] = float32(rng.NormFloat64())
		}
		kernel.BindQuery(q) // warm
		allocs := testing.AllocsPerRun(50, func() { kernel.BindQuery(q) })
		if allocs != 0 {
			t.Fatalf("%s: BindQuery allocated %v times per run", qz.Name(), allocs)
		}
	}
}
