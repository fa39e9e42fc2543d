package distsearch

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/hermes"
	"repro/internal/telemetry"
	"repro/internal/vec"
)

// BatchResult is the outcome of one batched distributed search.
type BatchResult struct {
	// Results holds per-query neighbors, index-aligned with the input.
	Results [][]vec.Neighbor
	// DeepLoads[s] counts how many of the batch's queries deep-searched
	// node s — the trace input of the multi-node energy model.
	DeepLoads []int
	// SampleLatency and DeepLatency are the wall times of the two
	// scatter/gather rounds.
	SampleLatency, DeepLatency time.Duration
	// Costs is the per-query cost ledger, index-aligned with the input:
	// node-reported cells, codes and (traced) scan time plus each query's
	// even share of the wire bytes of the batched round-trips that carried
	// it.
	Costs []telemetry.QueryCost
	// Total is the batch-level cost rollup: codes and cells summed from the
	// node ledger entries, scan time from the node-shipped list_scan spans
	// (traced batches only), wire bytes from the request and reply frame
	// sizes. The per-query Costs sum exactly to Total component-wise — the
	// attribution conserves the measurement.
	Total telemetry.QueryCost
	// BatchID is the batch's identity: the batch trace's ID when traced,
	// else a freshly minted ID when a flight recorder is attached (member
	// records carry it so /debug/queries?batch= can reassemble the batch),
	// else 0.
	BatchID uint64
}

// SearchBatch runs the hierarchical search for a whole batch using one
// round trip per node per phase: the sample batch is scattered to all nodes
// at once, shards are ranked per query, and each node then receives a single
// deep request carrying exactly the sub-batch of queries routed to it.
func (co *Coordinator) SearchBatch(queries [][]float32, p hermes.Params) (*BatchResult, error) {
	return co.searchBatch(queries, p, nil)
}

// SearchBatchTraced is SearchBatch with batch-level tracing: the trace's ID
// rides every wire request (nodes ship one consolidated span sequence per
// batch request plus the per-query ledger), the coordinator records its own
// scatter/rank/gather spans, and node spans from every shard are stitched
// in anchored at their send times. When a flight recorder is attached, the
// batch lands as one summary record under the batch ID (the batch
// waterfall) plus one member record per query carrying its ledger entry and
// BatchID — the /debug/queries?batch= view. A nil trace is exactly
// SearchBatch.
func (co *Coordinator) SearchBatchTraced(queries [][]float32, p hermes.Params, tr *telemetry.Trace) (*BatchResult, error) {
	return co.searchBatch(queries, p, tr)
}

func (co *Coordinator) searchBatch(queries [][]float32, p hermes.Params, tr *telemetry.Trace) (*BatchResult, error) {
	if len(queries) == 0 {
		return &BatchResult{DeepLoads: make([]int, len(co.nodes))}, nil
	}
	for i, q := range queries {
		if len(q) != co.dim {
			return nil, fmt.Errorf("distsearch: batch query %d dim %d != %d", i, len(q), co.dim)
		}
	}
	if p.K <= 0 {
		p = hermes.DefaultParams()
	}
	co.m.queries.Add(int64(len(queries)))
	co.m.batchSize.Observe(float64(len(queries)))
	batchID := tr.ID()
	if batchID == 0 && co.rec != nil {
		batchID = telemetry.NewTraceID()
	}
	start := time.Now()

	costs := make([]telemetry.QueryCost, len(queries))
	var total telemetry.QueryCost
	var costMu sync.Mutex

	// foldNodeResponse merges one node response's attribution into the
	// per-query ledger and the batch totals: node-reported per-query entries
	// (index-aligned with idx), an even split of the round-trip's wire bytes
	// across the queries the request carried, and the independently sourced
	// totals (codes scanned, list_scan span time, wire bytes).
	foldNodeResponse := func(resp *Response, wire int64, idx []int) {
		costMu.Lock()
		defer costMu.Unlock()
		for slot, c := range resp.Costs {
			if slot >= len(idx) {
				break
			}
			costs[idx[slot]].Add(c)
		}
		for slot, share := range telemetry.AttributeTotal(wire, make([]int64, len(idx))) {
			costs[idx[slot]].WireBytes += share
		}
		total.WireBytes += wire
		for _, c := range resp.Costs {
			total.Cells += c.Cells
			total.Codes += c.Codes
		}
		for _, ws := range resp.Spans {
			if ws.Name == "list_scan" {
				total.ScanNanos += ws.DurNanos
			}
		}
	}

	// allIdx is the identity index map for the sample phase, where every
	// request carries the full batch.
	allIdx := make([]int, len(queries))
	for i := range allIdx {
		allIdx[i] = i
	}

	// Phase 1 — one sample-batch request per node.
	endScatter := tr.StartSpan("sample_scatter")
	sampleScores := make([][]float32, len(co.nodes)) // [node][query]
	sampleOK := make([][]bool, len(co.nodes))
	errs := make([]error, len(co.nodes))
	var wg sync.WaitGroup
	for ni, n := range co.nodes {
		wg.Add(1)
		go func(ni int, n *nodeClient) {
			defer wg.Done()
			sendAt := time.Now()
			resp, wire, err := n.roundTripBytes(&Request{
				Op: OpSampleBatch, Queries: queries, NProbe: p.SampleNProbe,
				TraceID: tr.ID(),
			})
			if err != nil {
				errs[ni] = err
				return
			}
			stitchSpans(tr, sendAt, resp.Spans)
			foldNodeResponse(resp, wire, allIdx)
			scores := make([]float32, len(queries))
			oks := make([]bool, len(queries))
			for qi, res := range resp.Batch {
				if len(res) > 0 {
					scores[qi] = res[0].Score
					oks[qi] = true
				}
			}
			sampleScores[ni] = scores
			sampleOK[ni] = oks
		}(ni, n)
	}
	wg.Wait()
	endScatter()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sampleLat := time.Since(start)
	co.m.phaseSample.ObserveDuration(sampleLat)

	// Rank shards per query and build per-node deep sub-batches.
	endRank := tr.StartSpan("rank")
	type ranked struct {
		node int
		d    float32
	}
	deepQueries := make([][][]float32, len(co.nodes)) // [node] -> sub-batch
	deepQueryIdx := make([][]int, len(co.nodes))      // [node] -> original query indices
	deepLoads := make([]int, len(co.nodes))
	for qi := range queries {
		order := make([]ranked, 0, len(co.nodes))
		for ni := range co.nodes {
			if sampleOK[ni][qi] {
				order = append(order, ranked{ni, sampleScores[ni][qi]})
			}
		}
		sort.Slice(order, func(a, b int) bool { return order[a].d < order[b].d })
		deep := p.DeepClusters
		if deep > len(order) {
			deep = len(order)
		}
		for _, r := range order[:deep] {
			if p.PruneEps > 0 && float64(r.d) > (1+p.PruneEps)*float64(order[0].d) {
				break
			}
			deepQueries[r.node] = append(deepQueries[r.node], queries[qi])
			deepQueryIdx[r.node] = append(deepQueryIdx[r.node], qi)
			deepLoads[r.node]++
		}
	}
	endRank()

	// Phase 2 — one deep-batch request per loaded node.
	endGather := tr.StartSpan("deep_gather")
	deepStart := time.Now()
	merged := make([]*vec.TopK, len(queries))
	for qi := range merged {
		merged[qi] = vec.NewTopK(p.K)
	}
	var mu sync.Mutex
	for ni, n := range co.nodes {
		if len(deepQueries[ni]) == 0 {
			continue
		}
		wg.Add(1)
		go func(ni int, n *nodeClient) {
			defer wg.Done()
			sendAt := time.Now()
			resp, wire, err := n.roundTripBytes(&Request{
				Op: OpDeepBatch, Queries: deepQueries[ni], K: p.K, NProbe: p.DeepNProbe,
				TraceID: tr.ID(),
			})
			if err != nil {
				errs[ni] = err
				return
			}
			stitchSpans(tr, sendAt, resp.Spans)
			foldNodeResponse(resp, wire, deepQueryIdx[ni])
			mu.Lock()
			defer mu.Unlock()
			for slot, res := range resp.Batch {
				qi := deepQueryIdx[ni][slot]
				for _, nb := range res {
					merged[qi].Push(nb.ID, nb.Score)
				}
			}
		}(ni, n)
	}
	wg.Wait()
	endGather()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	deepLat := time.Since(deepStart)
	co.m.phaseDeep.ObserveDuration(deepLat)

	out := &BatchResult{
		Results:       make([][]vec.Neighbor, len(queries)),
		DeepLoads:     deepLoads,
		SampleLatency: sampleLat,
		DeepLatency:   deepLat,
		Costs:         costs,
		Total:         total,
		BatchID:       batchID,
	}
	for qi := range queries {
		out.Results[qi] = merged[qi].Results()
	}
	for _, c := range costs {
		co.m.observeCost(c)
	}
	co.recordBatch(out, queries, deepQueryIdx, tr, start)
	return out, nil
}

// recordBatch lands a completed batch in the flight recorder: one member
// record per query (fresh trace ID, the shared BatchID, its ledger entry and
// deep shards) plus one batch summary record under the batch ID itself,
// carrying the stitched batch waterfall and the batch totals — what
// /debug/queries?batch=<id> renders. No-op without a recorder.
func (co *Coordinator) recordBatch(out *BatchResult, queries [][]float32, deepQueryIdx [][]int, tr *telemetry.Trace, start time.Time) {
	if co.rec == nil {
		return
	}
	wall := time.Since(start)
	deepNodes := make([][]int, len(queries))
	for ni, idx := range deepQueryIdx {
		for _, qi := range idx {
			deepNodes[qi] = append(deepNodes[qi], co.nodes[ni].shardID)
		}
	}
	for qi := range queries {
		qr := telemetry.QueryRecord{
			TraceID:   telemetry.NewTraceID(),
			BatchID:   out.BatchID,
			Start:     start,
			Total:     wall,
			Busy:      wall,
			DeepNodes: deepNodes[qi],
			Scanned:   out.Costs[qi].Codes,
			Cost:      out.Costs[qi],
		}
		co.rec.Record(qr)
	}
	batch := telemetry.QueryRecord{
		TraceID: out.BatchID,
		BatchID: out.BatchID,
		Start:   start,
		Total:   wall,
		Busy:    wall,
		Scanned: out.Total.Codes,
		Cost:    out.Total,
	}
	if tr != nil {
		batch.Spans = tr.Spans()
		_, batch.Busy = telemetry.SpanTotals(batch.Spans)
	}
	co.rec.Record(batch)
}
