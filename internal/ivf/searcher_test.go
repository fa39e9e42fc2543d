package ivf

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/quant"
	"repro/internal/vec"
)

// searchConfigs returns index configurations covering every batch kernel and
// both encoding modes at dim (must be divisible by 4 for PQ/OPQ).
func searchConfigs(t testing.TB, dim int) map[string]Config {
	t.Helper()
	pq, err := quant.NewPQ(dim, dim/4, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	opq, err := quant.NewOPQ(dim, dim/4, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	pqRes, err := quant.NewPQ(dim, dim/4, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Config{
		"Flat":        {Dim: dim, NList: 12, Seed: 2},
		"SQ8":         {Dim: dim, NList: 12, Seed: 2, Quantizer: quant.NewSQ(dim, 8)},
		"SQ4":         {Dim: dim, NList: 12, Seed: 2, Quantizer: quant.NewSQ(dim, 4)},
		"PQ":          {Dim: dim, NList: 12, Seed: 2, Quantizer: pq},
		"OPQ":         {Dim: dim, NList: 12, Seed: 2, Quantizer: opq},
		"PQ-residual": {Dim: dim, NList: 12, Seed: 2, Quantizer: pqRes, ByResidual: true},
	}
}

// TestSearcherEquivalentToSearch pins the pooled scan path and an explicit
// Searcher to identical output (IDs and scores) for every kernel.
func TestSearcherEquivalentToSearch(t *testing.T) {
	data := gaussianData(600, 16, 31)
	queries := gaussianData(8, 16, 32)
	for name, cfg := range searchConfigs(t, 16) {
		t.Run(name, func(t *testing.T) {
			ix := buildIndex(t, data, cfg)
			s := ix.NewSearcher()
			for qi := 0; qi < queries.Len(); qi++ {
				q := queries.Row(qi)
				want, wantStats := ix.SearchWithStats(q, 7, 4)
				got, gotStats := s.Search(nil, q, 7, 4)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d: searcher %v != pooled %v", qi, got, want)
				}
				if gotStats != wantStats {
					t.Fatalf("query %d: stats %+v != %+v", qi, gotStats, wantStats)
				}
			}
		})
	}
}

// TestSearchBatchEquivalence is the batch/sequential equivalence property:
// the worker-pool path must produce byte-identical results to sequential
// SearchWithStats for every kernel. Run under -race in tier-1, it also
// certifies that the pooled searchers do not share mutable state.
func TestSearchBatchEquivalence(t *testing.T) {
	data := gaussianData(500, 16, 41)
	queries := gaussianData(24, 16, 42)
	for name, cfg := range searchConfigs(t, 16) {
		t.Run(name, func(t *testing.T) {
			ix := buildIndex(t, data, cfg)
			// Tombstones exercise the dead-position cursor under concurrency.
			for id := int64(0); id < 40; id += 4 {
				ix.Remove(id)
			}
			batch := ix.SearchBatch(queries, 6, 5)
			for qi := 0; qi < queries.Len(); qi++ {
				wantN, wantS := ix.SearchWithStats(queries.Row(qi), 6, 5)
				if !reflect.DeepEqual(batch[qi].Neighbors, wantN) {
					t.Fatalf("query %d: batch %v != sequential %v", qi, batch[qi].Neighbors, wantN)
				}
				if batch[qi].Stats != wantS {
					t.Fatalf("query %d: stats %+v != %+v", qi, batch[qi].Stats, wantS)
				}
			}
		})
	}
}

// TestSearcherNProbeClamp hits the Searcher directly with out-of-range
// nProbe values — the regression test for the old nearestCells slice panic
// when nProbe exceeded NList.
func TestSearcherNProbeClamp(t *testing.T) {
	data := gaussianData(100, 4, 7)
	ix := buildIndex(t, data, Config{Dim: 4, NList: 5, Seed: 1})
	s := ix.NewSearcher()
	res, stats := s.Search(nil, data.Row(0), 3, 99)
	if stats.CellsProbed != 5 {
		t.Fatalf("nProbe=99 probed %d cells, want 5", stats.CellsProbed)
	}
	if len(res) != 3 {
		t.Fatalf("nProbe=99 returned %d results, want 3", len(res))
	}
	if _, stats = s.Search(nil, data.Row(0), 3, -4); stats.CellsProbed != 1 {
		t.Fatalf("nProbe=-4 probed %d cells, want 1", stats.CellsProbed)
	}
}

// TestSearcherZeroAlloc is the steady-state allocation contract: a warmed
// Searcher with a recycled result slice performs zero heap allocations per
// query, for every kernel and in residual mode.
func TestSearcherZeroAlloc(t *testing.T) {
	data := gaussianData(600, 16, 51)
	queries := gaussianData(4, 16, 52)
	for name, cfg := range searchConfigs(t, 16) {
		t.Run(name, func(t *testing.T) {
			ix := buildIndex(t, data, cfg)
			s := ix.NewSearcher()
			dst := make([]vec.Neighbor, 0, 16)
			for qi := 0; qi < queries.Len(); qi++ { // warm all scratch
				dst, _ = s.Search(dst[:0], queries.Row(qi), 8, 6)
			}
			allocs := testing.AllocsPerRun(50, func() {
				dst, _ = s.Search(dst[:0], queries.Row(1), 8, 6)
			})
			if allocs != 0 {
				t.Fatalf("%s: %v allocations per query", name, allocs)
			}
		})
	}
}

// TestSearcherTombstoneCursor checks the sorted-position skip logic against
// removals scattered across block boundaries, before and after Compact.
func TestSearcherTombstoneCursor(t *testing.T) {
	data := gaussianData(900, 8, 61)
	ix := buildIndex(t, data, Config{Dim: 8, NList: 3, Seed: 9})
	removed := map[int64]bool{}
	for id := int64(0); id < 900; id += 7 {
		if ix.Remove(id) {
			removed[id] = true
		}
	}
	check := func(stage string) {
		t.Helper()
		for qi := 0; qi < 5; qi++ {
			res, stats := ix.SearchWithStats(data.Row(qi*13), 900, ix.NList())
			if stats.VectorsScanned != ix.Len() {
				t.Fatalf("%s: scanned %d, want %d live", stage, stats.VectorsScanned, ix.Len())
			}
			for _, nb := range res {
				if removed[nb.ID] {
					t.Fatalf("%s: removed id %d surfaced", stage, nb.ID)
				}
			}
		}
	}
	check("tombstoned")
	ix.Compact()
	if ix.Tombstones() != 0 {
		t.Fatalf("tombstones remain after Compact")
	}
	check("compacted")
}

// TestPredictCells pins the batcher's grouping signal to the probe selection
// the search itself performs.
func TestPredictCells(t *testing.T) {
	data := gaussianData(400, 8, 97)
	ix := buildIndex(t, data, Config{Dim: 8, NList: 10, Seed: 5})
	q := data.Row(7)
	cells := ix.PredictCells(nil, q, 4)
	if len(cells) != 4 {
		t.Fatalf("predicted %d cells, want 4", len(cells))
	}
	s := ix.NewSearcher()
	s.Search(nil, q, 3, 4)
	if !reflect.DeepEqual(cells, s.cells) {
		t.Fatalf("predicted %v != searched %v", cells, s.cells)
	}
	// Clamps mirror the search path; reuse of dst keeps the caller alloc-free.
	cells = ix.PredictCells(cells, q, 99)
	if len(cells) != ix.NList() {
		t.Fatalf("nProbe=99 predicted %d cells, want %d", len(cells), ix.NList())
	}
	if got := ix.PredictCells(cells, make([]float32, 3), 4); len(got) != 0 {
		t.Fatalf("dim mismatch predicted %d cells, want 0", len(got))
	}
	var un Index
	if got := un.PredictCells(nil, q, 4); len(got) != 0 {
		t.Fatalf("untrained predicted %d cells, want 0", len(got))
	}
}

// TestPredictCellsZeroAlloc: on a warmed index PredictCells borrows a pooled
// Searcher's selection scratch, so with room in dst it allocates nothing.
func TestPredictCellsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts")
	}
	data := gaussianData(400, 8, 97)
	ix := buildIndex(t, data, Config{Dim: 8, NList: 10, Seed: 5})
	q := data.Row(7)
	dst := make([]int32, 0, ix.NList())
	dst = ix.PredictCells(dst, q, 4)
	if allocs := testing.AllocsPerRun(50, func() { dst = ix.PredictCells(dst, q, 4) }); allocs != 0 {
		t.Fatalf("PredictCells allocated %v times per call", allocs)
	}
}

// BenchmarkSearcherScan is the end-to-end serving-path benchmark: one warmed
// Searcher, steady-state queries against a 20k-vector index.
func BenchmarkSearcherScan(b *testing.B) {
	const dim = 64
	data := gaussianData(20000, dim, 1)
	pq, err := quant.NewPQ(dim, dim/8, 8, 3)
	if err != nil {
		b.Fatal(err)
	}
	quantizers := map[string]quant.Quantizer{
		"Flat": nil,
		"SQ8":  quant.NewSQ(dim, 8),
		"SQ4":  quant.NewSQ(dim, 4),
		"PQ":   pq,
	}
	for name, qz := range quantizers {
		b.Run(fmt.Sprintf("%s/probe8", name), func(b *testing.B) {
			ix, err := New(Config{Dim: dim, NList: 100, Seed: 1, Quantizer: qz})
			if err != nil {
				b.Fatal(err)
			}
			if err := ix.Train(data); err != nil {
				b.Fatal(err)
			}
			if err := ix.AddBatch(0, data); err != nil {
				b.Fatal(err)
			}
			s := ix.NewSearcher()
			dst := make([]vec.Neighbor, 0, 16)
			q := data.Row(0)
			dst, _ = s.Search(dst[:0], q, 10, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst, _ = s.Search(dst[:0], q, 10, 8)
			}
		})
	}
}
