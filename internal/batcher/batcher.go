// Package batcher is the serving front-end that turns individual query
// arrivals into the batches everything downstream is optimized for. The
// paper's systems are evaluated at fixed batch sizes (32-256) because FAISS
// scan throughput, GPU prefill, and Hermes' per-node deep loads all amortize
// across a batch; a real deployment gets single queries and must form those
// batches itself. The batcher groups arrivals until either MaxBatch queries
// are waiting or MaxWait has elapsed since the first, trading a bounded
// queueing delay for batch efficiency.
//
// With a predictor wired (Config.Predict), the flush becomes a grouping
// scheduler instead of a blind FIFO take: each pending query carries the
// (shard, cell) keys it is expected to probe, the flusher packs queries that
// co-probe the seed's cells into the same batch, and a query with no overlap
// may be held back up to Config.GroupSlack — within its MaxWait bound — to
// ride with a better-matched cohort. The scheduler only chooses which
// queries travel together; each batch is served by the per-query scan
// engine (hermes.Store.SearchBatch, or distsearch batch requests), see
// DESIGN.md §13.
package batcher

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/evlog"
	"repro/internal/telemetry"
	"repro/internal/vec"
)

// now is the injectable clock seam for arrival stamps and slack-window
// decisions; tests swap it to make holdback choices deterministic.
var now = time.Now

// ProcessFunc executes one batch and returns per-query results,
// index-aligned with the input. distsearch.Coordinator.SearchBatch wrapped
// in a closure is the canonical implementation.
type ProcessFunc func(queries [][]float32) ([][]vec.Neighbor, error)

// ProcessBatchFunc is ProcessFunc plus batch identity: the batcher mints one
// telemetry trace ID per flush and hands it down, so the processor can thread
// the same identity through wire requests, stitched waterfalls, and every
// member query's flight-recorder record (telemetry.NewTraceWithID turns it
// into the batch trace). Canonical implementation: a closure over
// distsearch.Coordinator.SearchBatchTraced.
type ProcessBatchFunc func(batchID uint64, queries [][]float32) ([][]vec.Neighbor, error)

// PredictFunc returns the grouping keys of one query: opaque identifiers of
// the index regions (canonically shard<<32|cell, see hermes.Store
// PredictCells) the query is expected to probe. Keys may arrive in any order
// and may repeat; the batcher sorts and dedups them once at admission. The
// same signal keys the coming disk tier's cache, so predictions should be
// stable for a given query.
type PredictFunc func(q []float32) []uint64

// Config sizes the batcher.
type Config struct {
	// MaxBatch flushes as soon as this many queries are waiting.
	MaxBatch int
	// MaxWait flushes a partial batch this long after its first arrival.
	MaxWait time.Duration
	// Process executes flushed batches.
	Process ProcessFunc
	// ProcessBatch, when non-nil, executes flushed batches with a minted
	// batch identity and takes precedence over Process. Exactly one of the
	// two must be set.
	ProcessBatch ProcessBatchFunc
	// Predict, when non-nil, enables grouped scheduling: flushes pack
	// queries whose predicted cells overlap the oldest pending query's.
	// Nil keeps the original FIFO flush.
	Predict PredictFunc
	// GroupSlack is the SLO slack window of the grouping scheduler: a
	// pending query with no predicted overlap with the current seed may sit
	// out a flush until it has waited this long. Clamped to MaxWait (every
	// query still flushes within MaxWait of its own arrival); zero disables
	// holdback, so grouped flushes take everything FIFO would. Ignored
	// without Predict.
	GroupSlack time.Duration
	// Telemetry, when non-nil, receives the live queue-depth gauge, the
	// batch-size histogram, and the grouping histograms/counters
	// (hermes_batcher_*). Nil disables instrumentation.
	Telemetry *telemetry.Registry
	// Events, when non-nil, records lifecycle edges (the Close-time drain
	// of a partial batch). Nil disables event recording at zero cost.
	Events *evlog.Log
}

// Batcher groups queries into batches. Safe for concurrent Search calls.
type Batcher struct {
	cfg     Config
	mu      sync.Mutex
	pending []*request
	timer   *time.Timer
	closed  bool
	// timerFlushes counts armed wait timers whose flushTimer callback has
	// not finished: time.AfterFunc runs the callback on its own goroutine,
	// and Timer.Stop does not wait for a callback already in flight. Close
	// drains this before returning so no flush (and no cfg.Process call)
	// outlives it.
	timerFlushes sync.WaitGroup

	flushes, queriesServed, holdbacks int64

	queueDepth     *telemetry.Gauge
	batchSize      *telemetry.Histogram
	groupSize      *telemetry.Histogram
	groupOverlap   *telemetry.Histogram
	groupHoldbacks *telemetry.Counter
}

type request struct {
	query   []float32
	cells   []uint64 // sorted, deduped predicted keys; nil without Predict
	arrived time.Time
	done    chan response
}

type response struct {
	neighbors []vec.Neighbor
	err       error
}

// New validates the configuration and returns a ready batcher.
func New(cfg Config) (*Batcher, error) {
	if cfg.MaxBatch <= 0 {
		return nil, fmt.Errorf("batcher: MaxBatch must be positive")
	}
	if cfg.MaxWait <= 0 {
		return nil, fmt.Errorf("batcher: MaxWait must be positive")
	}
	if cfg.Process == nil && cfg.ProcessBatch == nil {
		return nil, fmt.Errorf("batcher: Process or ProcessBatch is required")
	}
	if cfg.GroupSlack < 0 {
		cfg.GroupSlack = 0
	}
	if cfg.GroupSlack > cfg.MaxWait {
		// A hold past MaxWait would break the batcher's latency contract.
		cfg.GroupSlack = cfg.MaxWait
	}
	return &Batcher{
		cfg: cfg,
		//lint:ignore metricname queue depth is a resident count, not a flow or a unit-bearing quantity
		queueDepth: cfg.Telemetry.Gauge("hermes_batcher_queue_depth",
			"Queries waiting for their batch to flush."),
		//lint:ignore metricname batch size is a dimensionless query count per flush
		batchSize: cfg.Telemetry.Histogram("hermes_batcher_batch_size",
			"Queries per flushed batch.", telemetry.DefSizeBuckets),
		//lint:ignore metricname group size is a dimensionless query count per grouped flush
		groupSize: cfg.Telemetry.Histogram("hermes_batcher_group_size",
			"Queries per grouped flush sharing predicted cells with the seed.", telemetry.DefSizeBuckets),
		//lint:ignore metricname overlap is a dimensionless shared-key count
		groupOverlap: cfg.Telemetry.Histogram("hermes_batcher_group_overlap",
			"Predicted-cell overlap between each flushed query and its batch seed.", telemetry.DefSizeBuckets),
		groupHoldbacks: cfg.Telemetry.Counter("hermes_batcher_group_holdbacks_total",
			"Queries held past a flush inside their slack window awaiting overlap."),
	}, nil
}

// Search enqueues a query and blocks until its batch completes.
func (b *Batcher) Search(q []float32) ([]vec.Neighbor, error) {
	req := &request{query: q, done: make(chan response, 1)}
	if b.cfg.Predict != nil {
		// Predict outside the lock: it may scan centroids.
		req.cells = normalizeKeys(b.cfg.Predict(q))
		req.arrived = now()
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, fmt.Errorf("batcher: closed")
	}
	b.pending = append(b.pending, req)
	b.queueDepth.Set(float64(len(b.pending)))
	switch {
	case len(b.pending) >= b.cfg.MaxBatch:
		batch := b.takeLocked(false)
		b.mu.Unlock()
		b.flush(batch)
	case len(b.pending) == 1 && b.timer == nil:
		// First arrival arms the wait timer. The Add is balanced by
		// flushTimer when the callback runs, or by takeLocked when a
		// successful Stop proves it never will.
		b.armTimerLocked(b.cfg.MaxWait)
		b.mu.Unlock()
	default:
		b.mu.Unlock()
	}
	resp := <-req.done
	return resp.neighbors, resp.err
}

// normalizeKeys sorts and dedups a prediction in place so overlap counting
// is a linear merge.
func normalizeKeys(keys []uint64) []uint64 {
	if len(keys) < 2 {
		return keys
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w := 1
	for i := 1; i < len(keys); i++ {
		if keys[i] != keys[w-1] {
			keys[w] = keys[i]
			w++
		}
	}
	return keys[:w]
}

// keyOverlap counts keys common to two sorted deduped sets.
func keyOverlap(a, b []uint64) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// armTimerLocked arms the wait timer for d from now; callers hold b.mu.
func (b *Batcher) armTimerLocked(d time.Duration) {
	if d < 0 {
		d = 0
	}
	b.timerFlushes.Add(1)
	b.timer = time.AfterFunc(d, b.flushTimer)
}

// takeLocked detaches the next batch; callers hold b.mu. FIFO mode (no
// predictor) and all=true (Close's final drain) take everything; grouped
// mode selects by predicted overlap and may leave held-back queries
// pending, in which case the wait timer is re-armed for the new oldest
// query's own MaxWait deadline. The queue-depth gauge reflects what
// actually remains — a grouped partial take must not report an empty queue.
func (b *Batcher) takeLocked(all bool) []*request {
	var batch []*request
	if all || b.cfg.Predict == nil || len(b.pending) <= 1 {
		batch = b.pending
		b.pending = nil
	} else {
		batch = b.selectGroupLocked()
	}
	b.queueDepth.Set(float64(len(b.pending)))
	if b.timer != nil {
		if b.timer.Stop() {
			// Stopped before firing: the callback never runs, so settle
			// its Add here. A false return means flushTimer is already
			// running (or queued) and settles it itself.
			b.timerFlushes.Done()
		}
		b.timer = nil
	}
	if len(b.pending) > 0 && !b.closed {
		// Held-back queries keep their own latency bound: the re-armed
		// timer fires at the new oldest query's arrival + MaxWait.
		b.armTimerLocked(b.pending[0].arrived.Add(b.cfg.MaxWait).Sub(now()))
	}
	return batch
}

// selectGroupLocked is the grouping scheduler's take: the oldest pending
// query seeds the batch (so no query starves — a held query eventually
// becomes the seed), every query whose predicted cells overlap the seed's
// joins in descending overlap order (FIFO on ties), and non-overlapping
// queries join only once they have waited GroupSlack. Capped at MaxBatch;
// the remainder stays pending. Callers hold b.mu.
func (b *Batcher) selectGroupLocked() []*request {
	pending := b.pending
	seed := pending[0]
	overlaps := make([]int, len(pending))
	idxs := make([]int, 0, len(pending)-1)
	for i := 1; i < len(pending); i++ {
		overlaps[i] = keyOverlap(seed.cells, pending[i].cells)
		idxs = append(idxs, i)
	}
	sort.SliceStable(idxs, func(a, c int) bool { return overlaps[idxs[a]] > overlaps[idxs[c]] })

	taken := make([]*request, 0, b.cfg.MaxBatch)
	taken = append(taken, seed)
	takenMark := make([]bool, len(pending))
	takenMark[0] = true
	cut := now()
	held := int64(0)
	grouped := 1 // queries sharing cells with the seed, incl. the seed
	overlapSum := 0
	for _, i := range idxs {
		if len(taken) >= b.cfg.MaxBatch {
			break
		}
		r := pending[i]
		if overlaps[i] > 0 || b.cfg.GroupSlack <= 0 || cut.Sub(r.arrived) >= b.cfg.GroupSlack {
			taken = append(taken, r)
			takenMark[i] = true
			if overlaps[i] > 0 {
				grouped++
			}
			overlapSum += overlaps[i]
			b.groupOverlap.Observe(float64(overlaps[i]))
			continue
		}
		held++
	}
	rest := pending[:0]
	for i, r := range pending {
		if !takenMark[i] {
			rest = append(rest, r)
		}
	}
	// Clear the tail so detached requests are not retained by the backing
	// array.
	for i := len(rest); i < len(pending); i++ {
		pending[i] = nil
	}
	b.pending = rest
	if len(rest) == 0 {
		b.pending = nil
	}
	b.holdbacks += held
	b.groupHoldbacks.Add(held)
	b.groupSize.Observe(float64(grouped))
	return taken
}

func (b *Batcher) flushTimer() {
	defer b.timerFlushes.Done()
	b.mu.Lock()
	batch := b.takeLocked(false)
	b.mu.Unlock()
	b.flush(batch)
}

func (b *Batcher) flush(batch []*request) {
	if len(batch) == 0 {
		return
	}
	queries := make([][]float32, len(batch))
	for i, r := range batch {
		queries[i] = r.query
	}
	b.batchSize.Observe(float64(len(queries)))
	var results [][]vec.Neighbor
	var err error
	if b.cfg.ProcessBatch != nil {
		// The minted ID is the batch's identity everywhere downstream: the
		// batch trace, the wire requests, the member flight records.
		results, err = b.cfg.ProcessBatch(telemetry.NewTraceID(), queries)
	} else {
		results, err = b.cfg.Process(queries)
	}
	if err == nil && len(results) != len(batch) {
		err = fmt.Errorf("batcher: Process returned %d results for %d queries", len(results), len(batch))
	}
	b.mu.Lock()
	b.flushes++
	b.queriesServed += int64(len(batch))
	b.mu.Unlock()
	for i, r := range batch {
		if err != nil {
			r.done <- response{err: err}
			continue
		}
		r.done <- response{neighbors: results[i]}
	}
}

// Stats reports batching effectiveness.
type Stats struct {
	Flushes, QueriesServed int64
	// Holdbacks counts queries that sat out a flush inside their slack
	// window (grouped scheduling only).
	Holdbacks int64
	// MeanBatch is queries per flush.
	MeanBatch float64
}

// Collect publishes the snapshot into reg as hermes_batcher_* gauges; wire
// it as a scrape-time collector. A nil registry is a no-op.
func (s Stats) Collect(reg *telemetry.Registry) {
	reg.Gauge("hermes_batcher_flushes_total", "Cumulative flushed batches.").Set(float64(s.Flushes))
	reg.Gauge("hermes_batcher_queries_served_total", "Cumulative queries served through batches.").Set(float64(s.QueriesServed))
	//lint:ignore metricname mean batch size is a dimensionless count-per-flush, not a unit-bearing quantity
	reg.Gauge("hermes_batcher_mean_batch", "Mean queries per flush.").Set(s.MeanBatch)
}

// Stats snapshots the counters.
func (b *Batcher) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := Stats{Flushes: b.flushes, QueriesServed: b.queriesServed, Holdbacks: b.holdbacks}
	if s.Flushes > 0 {
		s.MeanBatch = float64(s.QueriesServed) / float64(s.Flushes)
	}
	return s
}

// Close flushes any pending batch, rejects future Searches, and waits for
// any in-flight timer flush to finish, so cfg.Process is never entered
// after Close returns (callers tear down the processor right after).
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	batch := b.takeLocked(true)
	b.mu.Unlock()
	if len(batch) > 0 {
		b.cfg.Events.Info("batcher.drain", evlog.Int("pending", int64(len(batch))))
	}
	b.flush(batch)
	b.timerFlushes.Wait()
	// Snapshot under the lock: a timer flush racing with Close writes these
	// counters under b.mu right up until the Wait above returns.
	b.mu.Lock()
	flushes, served := b.flushes, b.queriesServed
	b.mu.Unlock()
	b.cfg.Events.Info("batcher.closed",
		evlog.Int("flushes", flushes), evlog.Int("queries", served))
}
