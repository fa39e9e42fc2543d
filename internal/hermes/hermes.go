// Package hermes implements the paper's primary contribution: similarity-
// clustered datastore disaggregation plus two-phase hierarchical search.
//
// Offline (Section 4.1), the datastore is split with k-means — trained on a
// small document subset, sweeping several seeds to minimize shard-size
// imbalance — and one IVF index is built per resulting cluster. Online
// (Section 4.2), each query first performs a cheap low-nProbe *sample
// search* retrieving a single document from every shard, ranks shards by
// that document's distance to the query, then runs a high-nProbe *deep
// search* on only the top few shards, finally reranking the union.
//
// The package also implements the baselines the paper compares against:
// a monolithic index, a naive equal split searched in full, and
// centroid-only routing (ranking shards by centroid distance instead of a
// sampled document).
package hermes

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/evlog"
	"repro/internal/ivf"
	"repro/internal/kmeans"
	"repro/internal/quant"
	"repro/internal/telemetry"
	"repro/internal/vec"
)

// Params are the Table 2 runtime knobs of the hierarchical search.
type Params struct {
	// K is the number of documents finally retrieved (paper: 5).
	K int
	// SampleNProbe is the nProbe of the sample phase (paper: 8).
	SampleNProbe int
	// DeepNProbe is the nProbe of the deep phase (paper: 128).
	DeepNProbe int
	// DeepClusters is how many shards receive a deep search (paper: 3).
	DeepClusters int
	// PruneEps, when > 0, enables SPANN-style query-time pruning on top of
	// the fixed DeepClusters budget: a ranked shard is deep-searched only
	// while its sampled-document distance is within (1+PruneEps) of the
	// best shard's. Easy queries (one clearly-relevant shard) then use
	// fewer deep searches than the budget, trading a little accuracy for
	// throughput — the extension the paper's related-work section points
	// at (SPANN prunes clusters by centroid distance; here the sampled
	// document plays that role).
	PruneEps float64
}

// DefaultParams returns the paper's evaluation configuration.
func DefaultParams() Params {
	return Params{K: 5, SampleNProbe: 8, DeepNProbe: 128, DeepClusters: 3}
}

func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.K <= 0 {
		p.K = d.K
	}
	if p.SampleNProbe <= 0 {
		p.SampleNProbe = d.SampleNProbe
	}
	if p.DeepNProbe <= 0 {
		p.DeepNProbe = d.DeepNProbe
	}
	if p.DeepClusters <= 0 {
		p.DeepClusters = d.DeepClusters
	}
	return p
}

// Shard is one disaggregated index cluster, deployable on its own node.
type Shard struct {
	// Index is the shard's IVF index (IDs are global chunk IDs).
	Index *ivf.Index
	// Centroid is the k-means center that defined the shard.
	Centroid []float32
	// Size is the number of vectors in the shard.
	Size int
}

// Store is a disaggregated datastore: the set of shards plus the assignment
// that produced them.
type Store struct {
	Shards []*Shard
	// Assign maps every corpus row to its shard.
	Assign []int
	// SeedUsed is the k-means seed chosen by imbalance minimization.
	SeedUsed int64
	// Imbalance is the max/min shard-size ratio.
	Imbalance float64

	// met holds resolved telemetry handles (see SetTelemetry); the zero
	// value is a no-op.
	met storeMetrics
	// rec, when non-nil, receives one QueryRecord per Search (see
	// SetRecorder in telemetry.go).
	rec *telemetry.Recorder
	// ev/slowScan arm the slow-scan detector (see SetEvents in
	// telemetry.go); nil ev or zero slowScan disables it.
	ev       *evlog.Log
	slowScan time.Duration
	// pool recycles searchScratch across queries (see scratch.go).
	pool sync.Pool
}

// BuildOptions configures disaggregation and per-shard index construction.
type BuildOptions struct {
	// NumShards is the number of clusters to split into.
	NumShards int
	// Seeds are the k-means seeds swept for minimum imbalance; empty
	// defaults to 8 deterministic seeds.
	Seeds []int64
	// SampleFrac is the fraction of documents used for k-means training
	// (the paper finds 1-2% sufficient); values <= 0 default to 0.02,
	// clamped to at least 20 points per shard.
	SampleFrac float64
	// QuantBits selects per-shard compression: 0 = Flat, 8 = SQ8, 4 = SQ4.
	QuantBits int
	// NList overrides the per-shard IVF nlist (0 = 4*sqrt(shard size)).
	NList int
	// KMeansIters bounds clustering iterations (default 25).
	KMeansIters int
}

func (o BuildOptions) withDefaults(n int) (BuildOptions, error) {
	if o.NumShards <= 0 {
		return o, fmt.Errorf("hermes: NumShards must be positive")
	}
	if o.NumShards > n {
		return o, fmt.Errorf("hermes: NumShards %d > corpus size %d", o.NumShards, n)
	}
	if len(o.Seeds) == 0 {
		o.Seeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}
	}
	if o.SampleFrac <= 0 {
		o.SampleFrac = 0.02
	}
	switch o.QuantBits {
	case 0, 4, 8:
	default:
		return o, fmt.Errorf("hermes: QuantBits must be 0, 4, or 8, got %d", o.QuantBits)
	}
	return o, nil
}

func newQuantizer(dim, bits int) quant.Quantizer {
	switch bits {
	case 8:
		return quant.NewSQ(dim, 8)
	case 4:
		return quant.NewSQ(dim, 4)
	default:
		return quant.NewFlat(dim)
	}
}

// Build disaggregates the corpus into similarity clusters (Step 1 of
// Figure 10) and builds one IVF index per cluster. Row i of data is chunk ID
// i.
func Build(data *vec.Matrix, opts BuildOptions) (*Store, error) {
	n := data.Len()
	opts, err := opts.withDefaults(n)
	if err != nil {
		return nil, err
	}
	sample := int(float64(n) * opts.SampleFrac)
	if minPts := 20 * opts.NumShards; sample < minPts {
		sample = minPts
	}
	if sample > n {
		sample = 0 // train on everything
	}
	cfg := kmeans.Config{
		K:          opts.NumShards,
		PlusPlus:   true,
		MaxIters:   opts.KMeansIters,
		SampleSize: sample,
	}
	res, seed, err := kmeans.BestSeed(data, cfg, opts.Seeds)
	if err != nil {
		return nil, fmt.Errorf("hermes: clustering: %w", err)
	}
	assign := kmeans.AssignAll(data, res.Centroids)
	return buildFromAssignment(data, assign, res.Centroids, seed)
}

// BuildNaiveSplit splits the corpus into equal round-robin shards with no
// similarity structure — the "Split" baseline of Figure 11 that must search
// nearly every shard to recover accuracy.
func BuildNaiveSplit(data *vec.Matrix, numShards, quantBits int) (*Store, error) {
	n := data.Len()
	if numShards <= 0 || numShards > n {
		return nil, fmt.Errorf("hermes: invalid shard count %d for %d rows", numShards, n)
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = i % numShards
	}
	// Centroids: per-shard means (used only by centroid routing).
	centroids := vec.NewMatrix(numShards, data.Dim)
	counts := make([]int, numShards)
	for i := 0; i < n; i++ {
		vec.Add(centroids.Row(assign[i]), data.Row(i))
		counts[assign[i]]++
	}
	for s := 0; s < numShards; s++ {
		if counts[s] > 0 {
			vec.Scale(centroids.Row(s), 1/float32(counts[s]))
		}
	}
	st, err := buildFromAssignmentQuant(data, assign, centroids, 0, quantBits, 0)
	if err != nil {
		return nil, err
	}
	return st, nil
}

func buildFromAssignment(data *vec.Matrix, assign []int, centroids *vec.Matrix, seed int64) (*Store, error) {
	return buildFromAssignmentQuant(data, assign, centroids, seed, 8, 0)
}

func buildFromAssignmentQuant(data *vec.Matrix, assign []int, centroids *vec.Matrix, seed int64, quantBits, nlist int) (*Store, error) {
	numShards := centroids.Len()
	// Partition rows by shard.
	rows := make([][]int, numShards)
	for i, s := range assign {
		rows[s] = append(rows[s], i)
	}
	sizes := make([]int, numShards)
	shards := make([]*Shard, numShards)
	for s := 0; s < numShards; s++ {
		sizes[s] = len(rows[s])
		if len(rows[s]) == 0 {
			return nil, fmt.Errorf("hermes: shard %d is empty; reduce NumShards or change seeds", s)
		}
		sub := vec.NewMatrix(len(rows[s]), data.Dim)
		for j, r := range rows[s] {
			copy(sub.Row(j), data.Row(r))
		}
		ix, err := ivf.New(ivf.Config{
			Dim:       data.Dim,
			NList:     nlist,
			Quantizer: newQuantizer(data.Dim, quantBits),
			Seed:      seed + int64(s),
		})
		if err != nil {
			return nil, err
		}
		if err := ix.Train(sub); err != nil {
			return nil, fmt.Errorf("hermes: shard %d index: %w", s, err)
		}
		for j, r := range rows[s] {
			if err := ix.Add(int64(r), sub.Row(j)); err != nil {
				return nil, err
			}
		}
		shards[s] = &Shard{Index: ix, Centroid: vec.Copy(centroids.Row(s)), Size: len(rows[s])}
	}
	return &Store{
		Shards:    shards,
		Assign:    assign,
		SeedUsed:  seed,
		Imbalance: kmeans.ImbalanceRatio(sizes),
	}, nil
}

// FromIndexes reassembles a Store from per-shard indexes loaded from disk.
// Shard centroids are reconstructed as the mean of each index's coarse
// centroids (close enough for centroid-routing comparisons; the primary
// document-sampling search does not use them at all).
func FromIndexes(indexes []*ivf.Index) (*Store, error) {
	if len(indexes) == 0 {
		return nil, fmt.Errorf("hermes: FromIndexes requires at least one index")
	}
	dim := indexes[0].Dim()
	shards := make([]*Shard, len(indexes))
	sizes := make([]int, len(indexes))
	for i, ix := range indexes {
		if ix == nil || !ix.Trained() {
			return nil, fmt.Errorf("hermes: index %d is not trained", i)
		}
		if ix.Dim() != dim {
			return nil, fmt.Errorf("hermes: index %d dim %d != %d", i, ix.Dim(), dim)
		}
		centroid := make([]float32, dim)
		for c := 0; c < ix.NList(); c++ {
			vec.Add(centroid, ix.Centroid(c))
		}
		vec.Scale(centroid, 1/float32(ix.NList()))
		shards[i] = &Shard{Index: ix, Centroid: centroid, Size: ix.Len()}
		sizes[i] = ix.Len()
	}
	return &Store{Shards: shards, Imbalance: kmeans.ImbalanceRatio(sizes)}, nil
}

// NumShards returns the shard count.
func (st *Store) NumShards() int { return len(st.Shards) }

// Sizes returns per-shard vector counts.
func (st *Store) Sizes() []int {
	out := make([]int, len(st.Shards))
	for i, s := range st.Shards {
		out[i] = s.Size
	}
	return out
}

// MemoryBytes totals the per-shard index footprints.
func (st *Store) MemoryBytes() int64 {
	var total int64
	for _, s := range st.Shards {
		total += s.Index.MemoryBytes()
	}
	return total
}

// SearchStats aggregates the work a query performed across shards; the
// multi-node model consumes these to attribute latency and energy per node.
type SearchStats struct {
	// SampledShards is the number of shards touched by the sample phase.
	SampledShards int
	// DeepShards lists the shard indices chosen for the deep phase, in
	// ranked order (most relevant first).
	DeepShards []int
	// SampleScanned and DeepScanned count vectors scanned in each phase.
	SampleScanned int
	DeepScanned   int
}

// Search runs the full Hermes hierarchical search for one query. Per-query
// scratch (shard ranking, top-k selector, per-shard searchers) is recycled
// through an internal pool, so steady-state queries allocate only the
// returned result slice and the stats' DeepShards list.
func (st *Store) Search(q []float32, p Params) ([]vec.Neighbor, SearchStats) {
	return st.SearchTraced(q, p, nil)
}

// SearchTraced is Search with request-scoped tracing: one span per phase
// (sample, rank, deep) lands on tr, and when a flight recorder is attached
// (SetRecorder) the completed query is appended to it — traced or not. A
// nil trace keeps the hot path clock-free.
func (st *Store) SearchTraced(q []float32, p Params, tr *telemetry.Trace) ([]vec.Neighbor, SearchStats) {
	p = p.withDefaults()
	st.met.searches.Inc()
	stop := st.met.searchSeconds.Timer()
	defer stop()
	rec := st.rec
	var start time.Time
	if rec != nil {
		start = now()
	}
	var stats SearchStats
	sc := st.getScratch()
	defer st.pool.Put(sc)

	// Phase 1 — document sampling: retrieve 1 document from every shard
	// with a low nProbe and score shards by that document's distance.
	endSample := tr.StartSpan("sample")
	order := sc.order[:0]
	for s := range st.Shards {
		res, sampleStats := st.searchShard(sc, s, q, 1, p.SampleNProbe)
		stats.SampledShards++
		stats.SampleScanned += sampleStats.VectorsScanned
		if len(res) == 0 {
			continue
		}
		order = append(order, rankedShard{res[0].Score, int32(s)})
	}
	sc.order = order
	st.met.sampleScanned.Add(int64(stats.SampleScanned))
	endSample()
	endRank := tr.StartSpan("rank")
	sortRanked(order)
	endRank()

	// Phase 2 — deep search into the top DeepClusters shards, optionally
	// pruned by sampled-document distance.
	deep := p.DeepClusters
	if deep > len(order) {
		deep = len(order)
	}
	endDeep := tr.StartSpan("deep")
	tk := sc.topK(p.K)
	for i, r := range order[:deep] {
		if p.PruneEps > 0 && i > 0 && float64(r.d) > (1+p.PruneEps)*float64(order[0].d) {
			break
		}
		res, deepStats := st.searchShard(sc, int(r.shard), q, p.K, p.DeepNProbe)
		stats.DeepShards = append(stats.DeepShards, int(r.shard))
		stats.DeepScanned += deepStats.VectorsScanned
		for _, n := range res {
			tk.Push(n.ID, n.Score)
		}
	}
	endDeep()
	st.met.deepScanned.Add(int64(stats.DeepScanned))
	out := tk.Results()
	if rec != nil {
		qr := telemetry.QueryRecord{
			TraceID:   tr.ID(),
			Start:     start,
			Total:     now().Sub(start),
			DeepNodes: append([]int(nil), stats.DeepShards...),
			Scanned:   int64(stats.SampleScanned + stats.DeepScanned),
		}
		qr.Busy = qr.Total
		if qr.TraceID == 0 {
			qr.TraceID = telemetry.NewTraceID()
		}
		if tr != nil {
			qr.Spans = tr.Spans()
			_, qr.Busy = telemetry.SpanTotals(qr.Spans)
		}
		rec.Record(qr)
	}
	return out, stats
}

// SearchCentroid is the centroid-routing ablation: shards are ranked by the
// distance of their k-means centroid to the query instead of by a sampled
// document (the weaker strategy in Figure 11).
func (st *Store) SearchCentroid(q []float32, p Params) ([]vec.Neighbor, SearchStats) {
	p = p.withDefaults()
	var stats SearchStats
	sc := st.getScratch()
	defer st.pool.Put(sc)
	order := sc.order[:0]
	for s, sh := range st.Shards {
		order = append(order, rankedShard{vec.L2Squared(q, sh.Centroid), int32(s)})
	}
	sc.order = order
	sortRanked(order)
	deep := p.DeepClusters
	if deep > len(order) {
		deep = len(order)
	}
	tk := sc.topK(p.K)
	for _, r := range order[:deep] {
		res, deepStats := st.searchShard(sc, int(r.shard), q, p.K, p.DeepNProbe)
		stats.DeepShards = append(stats.DeepShards, int(r.shard))
		stats.DeepScanned += deepStats.VectorsScanned
		for _, n := range res {
			tk.Push(n.ID, n.Score)
		}
	}
	return tk.Results(), stats
}

// SearchAll is the naive distributed baseline: every shard receives the deep
// search and the results are aggregated. Accuracy is maximal but so are
// energy and occupancy.
func (st *Store) SearchAll(q []float32, p Params) ([]vec.Neighbor, SearchStats) {
	p = p.withDefaults()
	var stats SearchStats
	sc := st.getScratch()
	defer st.pool.Put(sc)
	tk := sc.topK(p.K)
	for s := range st.Shards {
		res, deepStats := st.searchShard(sc, s, q, p.K, p.DeepNProbe)
		stats.DeepShards = append(stats.DeepShards, s)
		stats.DeepScanned += deepStats.VectorsScanned
		for _, n := range res {
			tk.Push(n.ID, n.Score)
		}
	}
	return tk.Results(), stats
}

// SearchFirstN is the naive-split baseline of Figure 11: deep-search the
// first n shards in fixed order (no routing intelligence) and aggregate.
// On a round-robin split every shard holds the same slice of every topic,
// so accuracy climbs roughly linearly with n and reaches iso-accuracy only
// when nearly all shards are searched — the curve Hermes is compared to.
func (st *Store) SearchFirstN(q []float32, p Params, n int) ([]vec.Neighbor, SearchStats) {
	p = p.withDefaults()
	if n <= 0 {
		n = p.DeepClusters
	}
	if n > len(st.Shards) {
		n = len(st.Shards)
	}
	var stats SearchStats
	sc := st.getScratch()
	defer st.pool.Put(sc)
	tk := sc.topK(p.K)
	for s := 0; s < n; s++ {
		res, deepStats := st.searchShard(sc, s, q, p.K, p.DeepNProbe)
		stats.DeepShards = append(stats.DeepShards, s)
		stats.DeepScanned += deepStats.VectorsScanned
		for _, nb := range res {
			tk.Push(nb.ID, nb.Score)
		}
	}
	return tk.Results(), stats
}

// PredictCells is the batcher's grouping signal (batcher.PredictFunc shape):
// it returns the (shard, cell) keys q is expected to deep-search, encoded as
// shard<<32 | cell. Shards are chosen by centroid routing — the cheap proxy
// for the sample phase that needs no index scan at admission time — and
// within each of the top DeepClusters shards the first SampleNProbe probe
// cells (the head of the DeepNProbe sequence, which every deep nProbe
// shares) form the key set. Two queries with overlapping keys will scan
// the same inverted lists.
func (st *Store) PredictCells(q []float32, p Params) []uint64 {
	p = p.withDefaults()
	if len(st.Shards) == 0 {
		return nil
	}
	order := make([]rankedShard, 0, len(st.Shards))
	for s, sh := range st.Shards {
		order = append(order, rankedShard{vec.L2Squared(q, sh.Centroid), int32(s)})
	}
	sortRanked(order)
	deep := p.DeepClusters
	if deep > len(order) {
		deep = len(order)
	}
	keys := make([]uint64, 0, deep*p.SampleNProbe)
	var cells []int32
	for _, r := range order[:deep] {
		cells = st.Shards[r.shard].Index.PredictCells(cells, q, p.SampleNProbe)
		for _, c := range cells {
			keys = append(keys, uint64(r.shard)<<32|uint64(uint32(c)))
		}
	}
	return keys
}

// BuildMonolithic constructs the single-index baseline over the whole
// corpus with the same quantization.
func BuildMonolithic(data *vec.Matrix, quantBits, nlist int, seed int64) (*ivf.Index, error) {
	ix, err := ivf.New(ivf.Config{
		Dim:       data.Dim,
		NList:     nlist,
		Quantizer: newQuantizer(data.Dim, quantBits),
		Seed:      seed,
	})
	if err != nil {
		return nil, err
	}
	if err := ix.Train(data); err != nil {
		return nil, err
	}
	if err := ix.AddBatch(0, data); err != nil {
		return nil, err
	}
	return ix, nil
}

// BatchResult couples one query's hierarchical-search output with its stats.
type BatchResult struct {
	Neighbors []vec.Neighbor
	Stats     SearchStats
}

// SearchBatch runs the hierarchical search for every query with a pool of
// GOMAXPROCS workers pulling from a shared queue — the in-process analog of
// the batch serving path (shards are searched concurrently-safe; only
// mutation must not race with searches).
func (st *Store) SearchBatch(queries *vec.Matrix, p Params) []BatchResult {
	n := queries.Len()
	out := make([]BatchResult, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i].Neighbors, out[i].Stats = st.Search(queries.Row(i), p)
		}
		return out
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i].Neighbors, out[i].Stats = st.Search(queries.Row(i), p)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}
