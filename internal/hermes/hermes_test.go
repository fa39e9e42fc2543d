package hermes

import (
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/flatindex"
	"repro/internal/metrics"
	"repro/internal/vec"
)

// testCorpus builds a topical corpus shared by the accuracy tests.
func testCorpus(t testing.TB, chunks, topics int) *corpus.Corpus {
	t.Helper()
	c, err := corpus.Generate(corpus.Spec{
		NumChunks: chunks, Dim: 24, NumTopics: topics, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func buildStore(t testing.TB, data *vec.Matrix, shards int) *Store {
	t.Helper()
	st, err := Build(data, BuildOptions{NumShards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func idsOf(ns []vec.Neighbor) []int64 {
	out := make([]int64, len(ns))
	for i, n := range ns {
		out[i] = n.ID
	}
	return out
}

func TestBuildValidation(t *testing.T) {
	data := vec.NewMatrix(10, 4)
	if _, err := Build(data, BuildOptions{NumShards: 0}); err == nil {
		t.Fatal("NumShards=0 should error")
	}
	if _, err := Build(data, BuildOptions{NumShards: 11}); err == nil {
		t.Fatal("NumShards>n should error")
	}
	if _, err := Build(data, BuildOptions{NumShards: 2, QuantBits: 3}); err == nil {
		t.Fatal("QuantBits=3 should error")
	}
}

func TestBuildShardInvariants(t *testing.T) {
	c := testCorpus(t, 2000, 8)
	st := buildStore(t, c.Vectors, 8)
	if st.NumShards() != 8 {
		t.Fatalf("NumShards = %d", st.NumShards())
	}
	total := 0
	for _, s := range st.Sizes() {
		if s == 0 {
			t.Fatal("empty shard")
		}
		total += s
	}
	if total != 2000 {
		t.Fatalf("shard sizes sum to %d", total)
	}
	if len(st.Assign) != 2000 {
		t.Fatalf("Assign len %d", len(st.Assign))
	}
	// Every vector must be findable in its assigned shard's index.
	for i := 0; i < 50; i++ {
		shard := st.Shards[st.Assign[i]]
		res := shard.Index.Search(c.Vectors.Row(i), 1, shard.Index.NList())
		if len(res) == 0 || res[0].ID != int64(i) {
			t.Fatalf("vector %d not its own nearest neighbor in shard %d", i, st.Assign[i])
		}
	}
	if st.Imbalance < 1 {
		t.Fatalf("imbalance %v < 1", st.Imbalance)
	}
}

func TestClusteringGroupsTopics(t *testing.T) {
	// With NumShards == NumTopics on a well-separated corpus, shards
	// should align with topics: chunks of one topic land in one shard.
	c := testCorpus(t, 1500, 6)
	st := buildStore(t, c.Vectors, 6)
	// Purity: the fraction of each topic's chunks living in that topic's
	// majority shard. k-means may occasionally split one topic and merge
	// two others (it optimizes inertia, not topic labels), so require
	// high average purity rather than perfection.
	counts := map[int]map[int]int{}
	topicTotal := map[int]int{}
	for i, tp := range c.Topics {
		if counts[tp] == nil {
			counts[tp] = map[int]int{}
		}
		counts[tp][st.Assign[i]]++
		topicTotal[tp]++
	}
	var puritySum float64
	for tp, shardCounts := range counts {
		best := 0
		for _, n := range shardCounts {
			if n > best {
				best = n
			}
		}
		puritySum += float64(best) / float64(topicTotal[tp])
	}
	if purity := puritySum / float64(len(counts)); purity < 0.85 {
		t.Fatalf("mean topic purity %v, want >= 0.85", purity)
	}
}

func TestHermesSearchMatchesGroundTruthTopic(t *testing.T) {
	c := testCorpus(t, 2000, 10)
	st := buildStore(t, c.Vectors, 10)
	qs := c.Queries(30, 7)
	ref := flatindex.New(24)
	ref.AddBatch(0, c.Vectors)
	truth := ref.GroundTruth(qs.Vectors, 5)

	var ndcgSum float64
	for i := 0; i < qs.Vectors.Len(); i++ {
		res, stats := st.Search(qs.Vectors.Row(i), DefaultParams())
		if len(res) != 5 {
			t.Fatalf("query %d returned %d results", i, len(res))
		}
		if stats.SampledShards != 10 {
			t.Fatalf("sample phase touched %d shards, want 10", stats.SampledShards)
		}
		if len(stats.DeepShards) != 3 {
			t.Fatalf("deep phase used %d shards, want 3", len(stats.DeepShards))
		}
		ndcgSum += metrics.NDCGAtK(idsOf(res), truth[i], 5)
	}
	if ndcg := ndcgSum / 30; ndcg < 0.95 {
		t.Fatalf("Hermes NDCG = %v, want >= 0.95 (iso-accuracy claim)", ndcg)
	}
}

// The Figure 11 ordering: Hermes (document sampling) >= centroid routing >=
// naive split at a small number of deep clusters; searching all shards is an
// upper bound.
func TestFig11StrategyOrdering(t *testing.T) {
	c := testCorpus(t, 3000, 10)
	clustered := buildStore(t, c.Vectors, 10)
	naive, err := BuildNaiveSplit(c.Vectors, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	qs := c.Queries(40, 11)
	ref := flatindex.New(24)
	ref.AddBatch(0, c.Vectors)
	truth := ref.GroundTruth(qs.Vectors, 5)

	p := DefaultParams()
	p.DeepClusters = 2

	meanNDCG := func(search func(q []float32) []vec.Neighbor) float64 {
		var sum float64
		for i := 0; i < qs.Vectors.Len(); i++ {
			sum += metrics.NDCGAtK(idsOf(search(qs.Vectors.Row(i))), truth[i], 5)
		}
		return sum / float64(qs.Vectors.Len())
	}

	hermesNDCG := meanNDCG(func(q []float32) []vec.Neighbor {
		r, _ := clustered.Search(q, p)
		return r
	})
	centroidNDCG := meanNDCG(func(q []float32) []vec.Neighbor {
		r, _ := clustered.SearchCentroid(q, p)
		return r
	})
	splitNDCG := meanNDCG(func(q []float32) []vec.Neighbor {
		r, _ := naive.SearchFirstN(q, p, p.DeepClusters)
		return r
	})
	allNDCG := meanNDCG(func(q []float32) []vec.Neighbor {
		r, _ := clustered.SearchAll(q, p)
		return r
	})

	if hermesNDCG < centroidNDCG-0.02 {
		t.Fatalf("Hermes %v should be >= centroid routing %v", hermesNDCG, centroidNDCG)
	}
	if hermesNDCG <= splitNDCG {
		t.Fatalf("Hermes %v should beat naive split %v at 2 deep clusters", hermesNDCG, splitNDCG)
	}
	if allNDCG < hermesNDCG-0.02 {
		t.Fatalf("search-all %v should upper-bound Hermes %v", allNDCG, hermesNDCG)
	}
	// Naive split at few deep clusters must clearly lose accuracy (its
	// neighbors are scattered uniformly over shards).
	if splitNDCG > 0.9 {
		t.Fatalf("naive split NDCG %v implausibly high at 2/10 shards", splitNDCG)
	}
}

func TestDeepClustersMonotoneNDCG(t *testing.T) {
	c := testCorpus(t, 2000, 10)
	st := buildStore(t, c.Vectors, 10)
	qs := c.Queries(25, 13)
	ref := flatindex.New(24)
	ref.AddBatch(0, c.Vectors)
	truth := ref.GroundTruth(qs.Vectors, 5)

	prev := -1.0
	for _, deep := range []int{1, 3, 10} {
		p := DefaultParams()
		p.DeepClusters = deep
		var sum float64
		for i := 0; i < qs.Vectors.Len(); i++ {
			res, _ := st.Search(qs.Vectors.Row(i), p)
			sum += metrics.NDCGAtK(idsOf(res), truth[i], 5)
		}
		ndcg := sum / float64(qs.Vectors.Len())
		if ndcg < prev-0.03 {
			t.Fatalf("NDCG fell from %v to %v as deep clusters grew to %d", prev, ndcg, deep)
		}
		prev = ndcg
	}
}

func TestHermesScansFewerVectorsThanSearchAll(t *testing.T) {
	c := testCorpus(t, 2000, 10)
	st := buildStore(t, c.Vectors, 10)
	q := c.Queries(1, 17).Vectors.Row(0)
	_, hermesStats := st.Search(q, DefaultParams())
	_, allStats := st.SearchAll(q, DefaultParams())
	hermesWork := hermesStats.SampleScanned + hermesStats.DeepScanned
	if hermesWork >= allStats.DeepScanned {
		t.Fatalf("Hermes scanned %d, search-all %d; Hermes should do less work", hermesWork, allStats.DeepScanned)
	}
}

func TestDeepShardsRankedAndDistinct(t *testing.T) {
	c := testCorpus(t, 1000, 5)
	st := buildStore(t, c.Vectors, 5)
	q := c.Queries(1, 19).Vectors.Row(0)
	p := DefaultParams()
	p.DeepClusters = 3
	_, stats := st.Search(q, p)
	seen := map[int]bool{}
	for _, s := range stats.DeepShards {
		if seen[s] {
			t.Fatalf("shard %d deep-searched twice", s)
		}
		seen[s] = true
		if s < 0 || s >= 5 {
			t.Fatalf("shard index %d out of range", s)
		}
	}
}

func TestDeepClustersClampedToShardCount(t *testing.T) {
	c := testCorpus(t, 500, 4)
	st := buildStore(t, c.Vectors, 4)
	p := DefaultParams()
	p.DeepClusters = 100
	res, stats := st.Search(c.Queries(1, 23).Vectors.Row(0), p)
	if len(stats.DeepShards) != 4 {
		t.Fatalf("deep shards = %d, want clamp to 4", len(stats.DeepShards))
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
}

func TestNaiveSplitInvariants(t *testing.T) {
	c := testCorpus(t, 1000, 5)
	st, err := BuildNaiveSplit(c.Vectors, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	sizes := st.Sizes()
	for _, s := range sizes {
		if s != 100 {
			t.Fatalf("naive split shard size %d, want 100", s)
		}
	}
	if st.Imbalance != 1 {
		t.Fatalf("naive split imbalance %v, want 1", st.Imbalance)
	}
	if _, err := BuildNaiveSplit(c.Vectors, 0, 8); err == nil {
		t.Fatal("0 shards should error")
	}
}

func TestMonolithicBaseline(t *testing.T) {
	c := testCorpus(t, 1500, 6)
	mono, err := BuildMonolithic(c.Vectors, 8, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mono.Len() != 1500 {
		t.Fatalf("monolithic len %d", mono.Len())
	}
	qs := c.Queries(20, 29)
	ref := flatindex.New(24)
	ref.AddBatch(0, c.Vectors)
	truth := ref.GroundTruth(qs.Vectors, 5)
	var sum float64
	for i := 0; i < qs.Vectors.Len(); i++ {
		res := mono.Search(qs.Vectors.Row(i), 5, 128)
		sum += metrics.NDCGAtK(idsOf(res), truth[i], 5)
	}
	if ndcg := sum / 20; ndcg < 0.95 {
		t.Fatalf("monolithic NDCG = %v", ndcg)
	}
}

// Iso-accuracy: Hermes at 3 deep clusters must match the monolithic index's
// NDCG (the paper's central accuracy claim).
func TestHermesIsoAccuracyWithMonolithic(t *testing.T) {
	c := testCorpus(t, 2500, 10)
	st := buildStore(t, c.Vectors, 10)
	mono, err := BuildMonolithic(c.Vectors, 8, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	qs := c.Queries(40, 31)
	ref := flatindex.New(24)
	ref.AddBatch(0, c.Vectors)
	truth := ref.GroundTruth(qs.Vectors, 5)

	var hermesSum, monoSum float64
	for i := 0; i < qs.Vectors.Len(); i++ {
		hres, _ := st.Search(qs.Vectors.Row(i), DefaultParams())
		hermesSum += metrics.NDCGAtK(idsOf(hres), truth[i], 5)
		mres := mono.Search(qs.Vectors.Row(i), 5, 128)
		monoSum += metrics.NDCGAtK(idsOf(mres), truth[i], 5)
	}
	hermesNDCG, monoNDCG := hermesSum/40, monoSum/40
	if hermesNDCG < monoNDCG-0.03 {
		t.Fatalf("Hermes NDCG %v below monolithic %v; iso-accuracy violated", hermesNDCG, monoNDCG)
	}
}

func TestAdaptivePruningReducesWork(t *testing.T) {
	c := testCorpus(t, 2000, 10)
	st := buildStore(t, c.Vectors, 10)
	qs := c.Queries(40, 37)
	ref := flatindex.New(24)
	ref.AddBatch(0, c.Vectors)
	truth := ref.GroundTruth(qs.Vectors, 5)

	base := DefaultParams()
	pruned := DefaultParams()
	pruned.PruneEps = 0.25

	var baseDeep, prunedDeep int
	var baseNDCG, prunedNDCG float64
	for i := 0; i < qs.Vectors.Len(); i++ {
		q := qs.Vectors.Row(i)
		bres, bstats := st.Search(q, base)
		baseDeep += len(bstats.DeepShards)
		baseNDCG += metrics.NDCGAtK(idsOf(bres), truth[i], 5)
		pres, pstats := st.Search(q, pruned)
		prunedDeep += len(pstats.DeepShards)
		prunedNDCG += metrics.NDCGAtK(idsOf(pres), truth[i], 5)
		if len(pstats.DeepShards) > len(bstats.DeepShards) {
			t.Fatal("pruning must never deep-search more shards than the budget")
		}
		if len(pstats.DeepShards) < 1 {
			t.Fatal("pruning must keep at least the best shard")
		}
	}
	if prunedDeep >= baseDeep {
		t.Fatalf("pruning did not reduce deep searches: %d vs %d", prunedDeep, baseDeep)
	}
	// Topical queries have one clearly-best shard, so accuracy should stay
	// within a small margin.
	n := float64(qs.Vectors.Len())
	if prunedNDCG/n < baseNDCG/n-0.05 {
		t.Fatalf("pruned NDCG %v fell too far below base %v", prunedNDCG/n, baseNDCG/n)
	}
}

func TestPruneEpsZeroIsNoOp(t *testing.T) {
	c := testCorpus(t, 800, 5)
	st := buildStore(t, c.Vectors, 5)
	q := c.Queries(1, 41).Vectors.Row(0)
	p := DefaultParams()
	a, aStats := st.Search(q, p)
	p.PruneEps = 0
	b, bStats := st.Search(q, p)
	if len(aStats.DeepShards) != len(bStats.DeepShards) {
		t.Fatal("PruneEps=0 must not change deep shard count")
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatal("PruneEps=0 must not change results")
		}
	}
}

func TestStoreMemoryAccounting(t *testing.T) {
	c := testCorpus(t, 800, 4)
	st := buildStore(t, c.Vectors, 4)
	var manual int64
	for _, s := range st.Shards {
		manual += s.Index.MemoryBytes()
	}
	if st.MemoryBytes() != manual {
		t.Fatalf("MemoryBytes %d != sum %d", st.MemoryBytes(), manual)
	}
}

func TestSearchBatchMatchesSingle(t *testing.T) {
	c := testCorpus(t, 1000, 5)
	st := buildStore(t, c.Vectors, 5)
	qs := c.Queries(16, 97)
	batch := st.SearchBatch(qs.Vectors, DefaultParams())
	if len(batch) != 16 {
		t.Fatalf("batch len %d", len(batch))
	}
	for i := 0; i < qs.Vectors.Len(); i++ {
		single, stats := st.Search(qs.Vectors.Row(i), DefaultParams())
		if len(single) != len(batch[i].Neighbors) {
			t.Fatalf("query %d lengths differ", i)
		}
		for j := range single {
			if single[j].ID != batch[i].Neighbors[j].ID {
				t.Fatalf("query %d pos %d differs", i, j)
			}
		}
		if stats.SampledShards != batch[i].Stats.SampledShards {
			t.Fatalf("query %d stats differ", i)
		}
	}
}

// TestPredictCellsStable pins the predictor's shape: keys are (shard, cell)
// pairs from the top centroid-routed shards, deterministic for a given
// query, and queries from the same topic overlap more than queries from
// different topics.
func TestPredictCellsStable(t *testing.T) {
	c := testCorpus(t, 1200, 6)
	st := buildStore(t, c.Vectors, 6)
	p := DefaultParams()
	q := c.Queries(1, 67).Vectors.Row(0)
	a := st.PredictCells(q, p)
	b := st.PredictCells(q, p)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("prediction not deterministic")
	}
	if len(a) == 0 {
		t.Fatal("no predicted cells")
	}
	for _, key := range a {
		shard := int(key >> 32)
		if shard < 0 || shard >= st.NumShards() {
			t.Fatalf("key %x names shard %d out of range", key, shard)
		}
	}
	overlap := func(x, y []uint64) int {
		set := map[uint64]bool{}
		for _, k := range x {
			set[k] = true
		}
		n := 0
		for _, k := range y {
			if set[k] {
				n++
			}
		}
		return n
	}
	// Same-topic queries should predict overlapping keys far more often than
	// not; average over several pairs to keep the assertion robust.
	sameQs := c.Queries(40, 71)
	same, diff, pairs := 0, 0, 0
	for i := 0; i+1 < sameQs.Vectors.Len(); i += 2 {
		qa, qb := sameQs.Vectors.Row(i), sameQs.Vectors.Row(i+1)
		if sameQs.Topics[i] == sameQs.Topics[i+1] {
			same += overlap(st.PredictCells(qa, p), st.PredictCells(qb, p))
		} else {
			diff += overlap(st.PredictCells(qa, p), st.PredictCells(qb, p))
		}
		pairs++
	}
	if same == 0 {
		t.Fatal("same-topic queries predicted zero overlapping keys")
	}
}
