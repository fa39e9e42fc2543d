package vec

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func randomMatrix(rng *rand.Rand, n, dim int) *Matrix {
	m := NewMatrix(n, dim)
	for i := range m.Data() {
		m.Data()[i] = float32(rng.NormFloat64())
	}
	return m
}

// kernelPaths runs f once per L2SquaredBatch implementation this host has:
// the AVX kernel (when the CPU supports it) and the pure-Go loop.
func kernelPaths(t *testing.T, f func(t *testing.T)) {
	saved := l2BatchUseAVX
	defer func() { l2BatchUseAVX = saved }()
	for _, useAVX := range []bool{true, false} {
		if useAVX && !hasAVX2 {
			continue
		}
		l2BatchUseAVX = useAVX
		name := "go"
		if useAVX {
			name = "avx"
		}
		t.Run(name, f)
	}
}

func TestL2SquaredBatchMatchesScalar(t *testing.T) {
	kernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		// Every dim residue mod 4 and mod 8, and row counts around the
		// kernel's four-row groups.
		for dim := 1; dim <= 140; dim++ {
			for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 200} {
				m := randomMatrix(rng, n, dim)
				q := make([]float32, dim)
				for d := range q {
					q[d] = float32(rng.NormFloat64())
				}
				// One slot past n must stay untouched.
				out := make([]float32, n+1)
				out[n] = -1
				L2SquaredBatch(q, m.Data(), n, out)
				for i := 0; i < n; i++ {
					if want := L2Squared(q, m.Row(i)); math.Float32bits(out[i]) != math.Float32bits(want) {
						t.Fatalf("dim=%d n=%d row %d: batch %v != scalar %v", dim, n, i, out[i], want)
					}
				}
				if out[n] != -1 {
					t.Fatalf("dim=%d n=%d: wrote past out[:n]", dim, n)
				}
			}
		}
	})
}

// TestL2SquaredBatchZeroRows: n == 0 writes nothing and reads no row.
func TestL2SquaredBatchZeroRows(t *testing.T) {
	kernelPaths(t, func(t *testing.T) {
		out := []float32{-1}
		L2SquaredBatch([]float32{1, 2}, nil, 0, out)
		if out[0] != -1 {
			t.Fatalf("n=0 wrote %v", out[0])
		}
	})
}

// TestArgMinL2MatchesScan pins ArgMinL2 to the plain row-by-row scan with a
// strict <, across block boundaries and with duplicated minima.
func TestArgMinL2MatchesScan(t *testing.T) {
	kernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		for _, dim := range []int{1, 3, 8, 30} {
			for _, n := range []int{1, 2, 63, 64, 65, 129, 300} {
				m := randomMatrix(rng, n, dim)
				q := make([]float32, dim)
				for d := range q {
					q[d] = float32(rng.NormFloat64())
				}
				// Duplicate one row later in the matrix: the earlier copy
				// must win the tie.
				if n > 2 {
					copy(m.Row(n-1), m.Row(n/2))
				}
				want, wantDist := 0, L2Squared(q, m.Row(0))
				for i := 1; i < n; i++ {
					if d := L2Squared(q, m.Row(i)); d < wantDist {
						want, wantDist = i, d
					}
				}
				got, gotDist := m.ArgMinL2(q)
				if got != want || math.Float32bits(gotDist) != math.Float32bits(wantDist) {
					t.Fatalf("dim=%d n=%d: ArgMinL2 = (%d, %v), scan = (%d, %v)", dim, n, got, gotDist, want, wantDist)
				}
			}
		}
	})
}

// TestL2KernelsAllocateNothing pins L2SquaredBatch and ArgMinL2 (whose
// distance block lives on the stack) at zero heap allocations.
func TestL2KernelsAllocateNothing(t *testing.T) {
	kernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		m := randomMatrix(rng, 300, 36)
		q := m.Row(7)
		out := make([]float32, 300)
		if a := testing.AllocsPerRun(50, func() { L2SquaredBatch(q, m.Data(), 300, out) }); a != 0 {
			t.Fatalf("L2SquaredBatch allocated %v times per call", a)
		}
		if a := testing.AllocsPerRun(50, func() { m.ArgMinL2(q) }); a != 0 {
			t.Fatalf("ArgMinL2 allocated %v times per call", a)
		}
	})
}

func TestL2SquaredBatchPartialPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randomMatrix(rng, 10, 6)
	q := make([]float32, 6)
	out := make([]float32, 10)
	// n smaller than the available rows only fills out[:n].
	L2SquaredBatch(q, m.Data(), 4, out)
	for i := 0; i < 4; i++ {
		if out[i] != L2Squared(q, m.Row(i)) {
			t.Fatalf("row %d mismatch", i)
		}
	}
}

func TestTopKResetReusesBuffer(t *testing.T) {
	tk := NewTopK(3)
	for i := 0; i < 10; i++ {
		tk.Push(int64(i), float32(10-i))
	}
	first := tk.Results()
	if len(first) != 3 || first[0].ID != 9 {
		t.Fatalf("first round = %v", first)
	}
	tk.Reset(2)
	for i := 0; i < 5; i++ {
		tk.Push(int64(100+i), float32(i))
	}
	second := tk.Results()
	if len(second) != 2 || second[0].ID != 100 || second[1].ID != 101 {
		t.Fatalf("second round = %v", second)
	}
	// Reset to a larger k than capacity still works.
	tk.Reset(8)
	for i := 0; i < 4; i++ {
		tk.Push(int64(i), float32(i))
	}
	if got := tk.Results(); len(got) != 4 {
		t.Fatalf("third round = %v", got)
	}
}

// TestTopKTiesIndependentOfPushOrder: candidates rank by score, then ID, so
// any push order keeps the same neighbours in the same order, also when a
// tie straddles the k-th place.
func TestTopKTiesIndependentOfPushOrder(t *testing.T) {
	cands := []Neighbor{{7, 1}, {3, 2}, {9, 2}, {4, 2}, {1, 3}, {8, 0.5}}
	want := []Neighbor{{8, 0.5}, {7, 1}, {3, 2}, {4, 2}}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		tk := NewTopK(4)
		for _, i := range rng.Perm(len(cands)) {
			tk.Push(cands[i].ID, cands[i].Score)
		}
		if got := tk.Results(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: %v, want %v", trial, got, want)
		}
	}
}

func TestTopKAppendResults(t *testing.T) {
	tk := NewTopK(4)
	for i := 0; i < 8; i++ {
		tk.Push(int64(i), float32(8-i))
	}
	dst := make([]Neighbor, 0, 16)
	dst = append(dst, Neighbor{ID: -1, Score: -1})
	dst = tk.AppendResults(dst)
	if len(dst) != 5 {
		t.Fatalf("len = %d, want 5 (sentinel + 4)", len(dst))
	}
	if dst[0].ID != -1 {
		t.Fatalf("prefix overwritten: %v", dst[0])
	}
	for i := 2; i < len(dst); i++ {
		if dst[i].Score < dst[i-1].Score {
			t.Fatalf("results not ascending: %v", dst[1:])
		}
	}
	// Zero-allocation contract with sufficient capacity.
	allocs := testing.AllocsPerRun(100, func() {
		tk.Reset(4)
		for i := 0; i < 8; i++ {
			tk.Push(int64(i), float32(i))
		}
		dst = tk.AppendResults(dst[:0])
	})
	if allocs != 0 {
		t.Fatalf("AppendResults allocated %v times per run", allocs)
	}
}

func BenchmarkL2SquaredScalarLoop(b *testing.B) {
	for _, dim := range []int{64, 128, 768} {
		b.Run(benchName(dim), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			const n = 1024
			m := randomMatrix(rng, n, dim)
			q := m.Row(0)
			b.SetBytes(int64(n * dim * 4))
			b.ResetTimer()
			var sink float32
			for i := 0; i < b.N; i++ {
				for j := 0; j < n; j++ {
					sink += L2Squared(q, m.Row(j))
				}
			}
			_ = sink
		})
	}
}

func BenchmarkL2SquaredBatch(b *testing.B) {
	for _, useAVX := range []bool{true, false} {
		if useAVX && !hasAVX2 {
			continue
		}
		kernel := "go"
		if useAVX {
			kernel = "avx"
		}
		for _, dim := range []int{64, 128, 768} {
			b.Run(kernel+"/"+benchName(dim), func(b *testing.B) {
				saved := l2BatchUseAVX
				defer func() { l2BatchUseAVX = saved }()
				l2BatchUseAVX = useAVX
				rng := rand.New(rand.NewSource(1))
				const n = 1024
				m := randomMatrix(rng, n, dim)
				q := m.Row(0)
				out := make([]float32, n)
				b.SetBytes(int64(n * dim * 4))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					L2SquaredBatch(q, m.Data(), n, out)
				}
			})
		}
	}
}

func benchName(dim int) string {
	switch dim {
	case 64:
		return "dim64"
	case 128:
		return "dim128"
	default:
		return "dim768"
	}
}
