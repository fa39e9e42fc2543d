package quant

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// benchSetup holds one trained quantizer with a contiguous code block and a
// bound query, the shape of one inverted-list scan.
type benchSetup struct {
	qz    Quantizer
	codes []byte
	q     []float32
	n     int
}

func newBenchSetup(b *testing.B, qz Quantizer, dim, n int) *benchSetup {
	b.Helper()
	rng := rand.New(rand.NewSource(17))
	train := vec.NewMatrix(512, dim)
	for i := range train.Data() {
		train.Data()[i] = float32(rng.NormFloat64())
	}
	if err := qz.Train(train); err != nil {
		b.Fatal(err)
	}
	cs := qz.CodeSize()
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
	return &benchSetup{qz: qz, codes: codes, q: q, n: n}
}

// benchQuantizers returns the schemes to measure at dim. PQ/OPQ use dim/8
// subquantizers (dsub=8), the shape used throughout the paper's Table 1.
func benchQuantizers(b *testing.B, dim int) []Quantizer {
	b.Helper()
	pq, err := NewPQ(dim, dim/8, 8, 3)
	if err != nil {
		b.Fatal(err)
	}
	opq, err := NewOPQ(dim, dim/8, 8, 5)
	if err != nil {
		b.Fatal(err)
	}
	return []Quantizer{NewFlat(dim), NewSQ(dim, 8), NewSQ(dim, 4), pq, opq}
}

// BenchmarkScalarScan measures the pre-existing per-code closure path: one
// indirect Distancer call per vector, the FAISS-unfaithful baseline.
func BenchmarkScalarScan(b *testing.B) {
	for _, dim := range []int{64, 128, 768} {
		for _, qz := range benchQuantizers(b, dim) {
			b.Run(fmt.Sprintf("%s/dim%d", qz.Name(), dim), func(b *testing.B) {
				s := newBenchSetup(b, qz, dim, 1024)
				cs := s.qz.CodeSize()
				dist := s.qz.NewDistancer(s.q)
				b.SetBytes(int64(s.n * cs))
				b.ResetTimer()
				var sink float32
				for i := 0; i < b.N; i++ {
					for j := 0; j < s.n; j++ {
						sink += dist(s.codes[j*cs : (j+1)*cs])
					}
				}
				_ = sink
			})
		}
	}
}

// BenchmarkBatchScan measures the blocked DistanceBatch kernels over the same
// inputs; per-op work is identical to BenchmarkScalarScan (1024 codes), so
// ns/op is directly comparable.
func BenchmarkBatchScan(b *testing.B) {
	for _, dim := range []int{64, 128, 768} {
		for _, qz := range benchQuantizers(b, dim) {
			b.Run(fmt.Sprintf("%s/dim%d", qz.Name(), dim), func(b *testing.B) {
				s := newBenchSetup(b, qz, dim, 1024)
				kernel := NewBatchDistancer(s.qz)
				kernel.BindQuery(s.q)
				out := make([]float32, s.n)
				b.SetBytes(int64(s.n * s.qz.CodeSize()))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					kernel.DistanceBatch(s.codes, s.n, out)
				}
			})
		}
	}
}

// BenchmarkSQ8Block measures one scan block (256 codes, the ivf scanBlock)
// through each SQ8 path this host has: the AVX2 block kernel and sq8Scan.
func BenchmarkSQ8Block(b *testing.B) {
	for _, useAVX2 := range []bool{true, false} {
		if useAVX2 && !vec.HasAVX2() {
			continue
		}
		path := "go"
		if useAVX2 {
			path = "avx2"
		}
		for _, dim := range []int{32, 128} {
			b.Run(fmt.Sprintf("%s/dim%d", path, dim), func(b *testing.B) {
				saved := sq8UseAVX2
				defer func() { sq8UseAVX2 = saved }()
				sq8UseAVX2 = useAVX2
				s := newBenchSetup(b, NewSQ(dim, 8), dim, 256)
				kernel := NewBatchDistancer(s.qz)
				kernel.BindQuery(s.q)
				out := make([]float32, s.n)
				b.SetBytes(int64(s.n * s.qz.CodeSize()))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					kernel.DistanceBatch(s.codes, s.n, out)
				}
			})
		}
	}
}

// BenchmarkBindQuery isolates per-query kernel setup (table/LUT build), the
// cost amortized across a scan — see DESIGN.md §8 for the crossover analysis.
func BenchmarkBindQuery(b *testing.B) {
	dim := 128
	for _, qz := range benchQuantizers(b, dim) {
		b.Run(qz.Name(), func(b *testing.B) {
			s := newBenchSetup(b, qz, dim, 1)
			kernel := NewBatchDistancer(s.qz)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernel.BindQuery(s.q)
			}
		})
	}
}
