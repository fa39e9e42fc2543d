package distsearch

import (
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/hermes"
	"repro/internal/telemetry"
)

// batchCluster builds a store, serves every shard from a real node, and
// returns the corpus and a coordinator dialed with opts.
func batchCluster(t *testing.T, shards int, opts DialOptions) (*corpus.Corpus, *Coordinator) {
	t.Helper()
	c, err := corpus.Generate(corpus.Spec{NumChunks: 900, Dim: 16, NumTopics: shards, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	st, err := hermes.Build(c.Vectors, hermes.BuildOptions{NumShards: shards})
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for i, shard := range st.Shards {
		node, err := NewNode(i, shard.Index, nil)
		if err != nil {
			t.Fatal(err)
		}
		node.SetTelemetry(telemetry.NewRegistry())
		if err := node.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		addrs = append(addrs, node.Addr())
	}
	if opts.Timeout == 0 {
		opts.Timeout = time.Second
	}
	if opts.Telemetry == nil {
		opts.Telemetry = telemetry.NewRegistry()
	}
	co, err := DialOpts(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	return c, co
}

// TestSearchBatchTracedLedger pins batch tracing and the cost ledger: a
// traced batch returns results DeepEqual-identical to the untraced batch,
// and per-query ledger entries sum exactly to the batch's measured totals,
// traced and untraced.
func TestSearchBatchTracedLedger(t *testing.T) {
	const shards = 3
	c, co := batchCluster(t, shards, DialOptions{})
	qs := c.Queries(16, 31)
	queries := make([][]float32, qs.Vectors.Len())
	for i := range queries {
		queries[i] = qs.Vectors.Row(i)
	}
	p := hermes.DefaultParams()

	plain, err := co.SearchBatch(queries, p)
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTrace()
	traced, err := co.SearchBatchTraced(queries, p, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(traced.Results, plain.Results) {
		t.Fatal("traced batch drifted from the untraced answer")
	}
	if traced.BatchID != tr.ID() {
		t.Fatalf("BatchID %x != trace ID %x", traced.BatchID, tr.ID())
	}

	// Conservation: per-query ledger entries sum exactly to the batch total,
	// component-wise.
	var sum telemetry.QueryCost
	for i, cst := range traced.Costs {
		if cst.Codes == 0 || cst.Cells == 0 {
			t.Fatalf("query %d ledger empty: %+v", i, cst)
		}
		if cst.WireBytes <= 0 {
			t.Fatalf("query %d has no wire attribution: %+v", i, cst)
		}
		sum.Add(cst)
	}
	if sum != traced.Total {
		t.Fatalf("ledger does not conserve the measurement:\n  sum   %+v\n  total %+v", sum, traced.Total)
	}
	if traced.Total.ScanNanos <= 0 {
		t.Fatal("traced batch measured no scan time")
	}

	// Untraced ledger: same counters, no scan time (no clock on that path),
	// wire bytes still attributed.
	var untracedSum telemetry.QueryCost
	for i, cst := range plain.Costs {
		if cst.ScanNanos != 0 {
			t.Fatalf("untraced query %d carries scan time: %+v", i, cst)
		}
		if cst.Codes == 0 || cst.WireBytes <= 0 {
			t.Fatalf("untraced query %d ledger empty: %+v", i, cst)
		}
		untracedSum.Add(cst)
	}
	if untracedSum != plain.Total {
		t.Fatalf("untraced ledger does not conserve: sum %+v != total %+v", untracedSum, plain.Total)
	}
	if sum.Cells != untracedSum.Cells || sum.Codes != untracedSum.Codes {
		t.Fatalf("traced and untraced batches did different work: %+v vs %+v", sum, untracedSum)
	}

	// The batch waterfall: coordinator phases once, plus node spans from
	// every shard. Each batch request ships one consolidated span sequence,
	// so list_scan appears once per request, not once per query.
	nodesSeen := map[int]bool{}
	scans := 0
	for _, s := range tr.Spans() {
		if s.Name == "list_scan" {
			nodesSeen[s.Node] = true
			scans++
		}
	}
	if len(nodesSeen) != shards {
		t.Fatalf("list_scan spans from %d nodes, want all %d", len(nodesSeen), shards)
	}
	if scans > 2*shards {
		t.Fatalf("%d list_scan spans for %d queries x %d shards: per-query spans leaked in", scans, len(queries), shards)
	}
}

// TestBatchE2EDebugQueries is the real-TCP end-to-end: a traced batch over
// live nodes lands in the flight recorder as one batch summary (waterfall
// with node spans from every shard) plus member records, and
// /debug/queries?batch= renders the waterfall and the attribution table
// whose totals row matches the batch.
func TestBatchE2EDebugQueries(t *testing.T) {
	const shards = 3
	rec := telemetry.NewRecorder(128, time.Hour)
	c, co := batchCluster(t, shards, DialOptions{Recorder: rec})
	qs := c.Queries(12, 37)
	queries := make([][]float32, qs.Vectors.Len())
	for i := range queries {
		queries[i] = qs.Vectors.Row(i)
	}
	tr := telemetry.NewTrace()
	res, err := co.SearchBatchTraced(queries, hermes.DefaultParams(), tr)
	if err != nil {
		t.Fatal(err)
	}

	batch, members, ok := rec.Batch(res.BatchID)
	if !ok {
		t.Fatalf("batch %016x not in recorder", res.BatchID)
	}
	if !batch.IsBatch() || batch.Cost != res.Total {
		t.Fatalf("batch summary %+v does not carry the batch totals %+v", batch.Cost, res.Total)
	}
	if len(members) != len(queries) {
		t.Fatalf("%d member records, want %d", len(members), len(queries))
	}
	var sum telemetry.QueryCost
	for _, m := range members {
		sum.Add(m.Cost)
	}
	if sum != batch.Cost {
		t.Fatalf("member records sum %+v != batch record %+v", sum, batch.Cost)
	}
	nodesSeen := map[int]bool{}
	for _, s := range batch.Spans {
		if s.Node != telemetry.NodeLocal {
			nodesSeen[s.Node] = true
		}
	}
	if len(nodesSeen) != shards {
		t.Fatalf("batch waterfall has node spans from %d shards, want %d", len(nodesSeen), shards)
	}

	id := strconv.FormatUint(res.BatchID, 16)
	w := httptest.NewRecorder()
	rec.ServeQueries(w, httptest.NewRequest("GET", "/debug/queries?batch="+id, nil))
	body := w.Body.String()
	for _, want := range []string{
		"batch " + strings.Repeat("0", 16-len(id)) + id,
		"per-query attribution:",
		"codes",
		// Node spans render with their shard qualifier in the waterfall
		// (stitched from every node's shipped spans).
		"n0.list_scan", "n1.list_scan", "n2.list_scan",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("?batch= view missing %q:\n%s", want, body)
		}
	}

	// The plain listing marks the batch summary and its members.
	w = httptest.NewRecorder()
	rec.ServeQueries(w, httptest.NewRequest("GET", "/debug/queries?n=64", nil))
	list := w.Body.String()
	if !strings.Contains(list, "[batch]") || !strings.Contains(list, "batch="+strings.Repeat("0", 16-len(id))+id) {
		t.Fatalf("listing does not mark the batch records:\n%s", list)
	}
}
