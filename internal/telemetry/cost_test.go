package telemetry

import (
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestAttributeTotalExactSum is the ledger's conservation primitive: parts
// always sum to the total exactly, for proportional and even splits alike.
func TestAttributeTotalExactSum(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 200; iter++ {
		n := rng.Intn(12) + 1
		weights := make([]int64, n)
		for i := range weights {
			if rng.Intn(4) > 0 {
				weights[i] = rng.Int63n(100000)
			}
		}
		total := rng.Int63n(1 << 40)
		parts := AttributeTotal(total, weights)
		if len(parts) != n {
			t.Fatalf("got %d parts, want %d", len(parts), n)
		}
		var sum int64
		for i, p := range parts {
			if p < 0 {
				t.Fatalf("iter %d: negative part %d at %d (weights %v)", iter, p, i, weights)
			}
			if weights[i] == 0 && anyNonZero(weights) && p != 0 {
				t.Fatalf("iter %d: zero-weight part got %d (weights %v)", iter, i, weights)
			}
			sum += p
		}
		if sum != total {
			t.Fatalf("iter %d: parts sum %d != total %d (weights %v)", iter, sum, total, weights)
		}
	}
}

func anyNonZero(ws []int64) bool {
	for _, w := range ws {
		if w != 0 {
			return true
		}
	}
	return false
}

// TestAttributeTotalShapes pins the edge shapes: nil weights, single part,
// all-zero weights (even split), zero total.
func TestAttributeTotalShapes(t *testing.T) {
	if got := AttributeTotal(100, nil); got != nil {
		t.Fatalf("nil weights returned %v", got)
	}
	if got := AttributeTotal(77, []int64{5}); got[0] != 77 {
		t.Fatalf("single part = %d, want 77", got[0])
	}
	even := AttributeTotal(10, []int64{0, 0, 0})
	var sum int64
	for _, p := range even {
		if p < 3 || p > 4 {
			t.Fatalf("even split produced %v", even)
		}
		sum += p
	}
	if sum != 10 {
		t.Fatalf("even split sums to %d", sum)
	}
	for _, p := range AttributeTotal(0, []int64{3, 4}) {
		if p != 0 {
			t.Fatalf("zero total produced nonzero part")
		}
	}
}

// TestQueryCostAccessors covers the views the tables and histograms
// consume.
func TestQueryCostAccessors(t *testing.T) {
	var z QueryCost
	if !z.IsZero() {
		t.Fatalf("zero value not zero: %+v", z)
	}
	c := QueryCost{Cells: 4, Codes: 40, ScanNanos: 500, WireBytes: 128}
	if c.IsZero() {
		t.Fatalf("populated ledger reported zero: %+v", c)
	}
	c.Add(QueryCost{Cells: 1, Codes: 10, WireBytes: 2})
	if c.Cells != 5 || c.Codes != 50 || c.WireBytes != 130 {
		t.Fatalf("Add produced %+v", c)
	}
	if s := c.String(); !strings.Contains(s, "codes=50") || !strings.Contains(s, "wire=130B") {
		t.Fatalf("String = %q", s)
	}
}

// batchFixture lands one batch (summary + 3 members) plus an unrelated solo
// record in a recorder.
func batchFixture(rec *Recorder) (batchID uint64, memberCosts []QueryCost) {
	batchID = uint64(0xabc0)
	memberCosts = []QueryCost{
		{Cells: 4, Codes: 120, ScanNanos: 1000, WireBytes: 64},
		{Cells: 4, Codes: 100, ScanNanos: 900, WireBytes: 64},
		{Cells: 2, Codes: 50, ScanNanos: 100, WireBytes: 65},
	}
	var total QueryCost
	for i, c := range memberCosts {
		total.Add(c)
		rec.Record(QueryRecord{
			TraceID: uint64(0x1000 + i),
			BatchID: batchID,
			Start:   recAt(i),
			Total:   time.Millisecond,
			Cost:    c,
		})
	}
	rec.Record(QueryRecord{
		TraceID: batchID,
		BatchID: batchID,
		Start:   recAt(0),
		Total:   5 * time.Millisecond,
		Cost:    total,
		Spans: []Span{
			{Name: "sample_scatter", Node: NodeLocal, Start: recAt(0), Duration: time.Millisecond},
			{Name: "list_scan", Node: 2, Start: recAt(0), Duration: time.Millisecond},
		},
	})
	rec.Record(QueryRecord{TraceID: 0x9999, Start: recAt(9), Total: time.Millisecond})
	return batchID, memberCosts
}

// TestRecorderBatch pins batch reassembly: the summary record is identified
// by TraceID==BatchID, members come back oldest-first, solo records stay out.
func TestRecorderBatch(t *testing.T) {
	rec := NewRecorder(64, 0)
	batchID, memberCosts := batchFixture(rec)
	batch, members, ok := rec.Batch(batchID)
	if !ok {
		t.Fatal("Batch did not find the summary record")
	}
	if !batch.IsBatch() || batch.TraceID != batchID {
		t.Fatalf("summary = %+v", batch)
	}
	if len(members) != len(memberCosts) {
		t.Fatalf("got %d members, want %d", len(members), len(memberCosts))
	}
	var total QueryCost
	for i, m := range members {
		if m.BatchID != batchID || m.IsBatch() {
			t.Fatalf("member %d = %+v", i, m)
		}
		if i > 0 && m.Start.Before(members[i-1].Start) {
			t.Fatalf("members not oldest-first at %d", i)
		}
		total.Add(m.Cost)
	}
	// The attribution conserves the measurement: members sum to the summary.
	if total != batch.Cost {
		t.Fatalf("member costs sum %+v != batch total %+v", total, batch.Cost)
	}
	if _, _, ok := rec.Batch(0x9999); ok {
		t.Fatal("solo record reassembled as a batch")
	}
	if _, _, ok := rec.Batch(0); ok {
		t.Fatal("zero batch ID reassembled")
	}
}

// TestServeQueriesBatchView drives the /debug/queries?batch= handler: text
// renders the waterfall header and attribution table, JSON carries the
// summary and members.
func TestServeQueriesBatchView(t *testing.T) {
	rec := NewRecorder(64, 0)
	batchID, memberCosts := batchFixture(rec)

	w := httptest.NewRecorder()
	rec.ServeQueries(w, httptest.NewRequest("GET", "/debug/queries?batch=000000000000abc0", nil))
	body := w.Body.String()
	for _, want := range []string{"batch 000000000000abc0", "per-query attribution", "codes", "total"} {
		if !strings.Contains(body, want) {
			t.Fatalf("batch view missing %q:\n%s", want, body)
		}
	}

	w = httptest.NewRecorder()
	rec.ServeQueries(w, httptest.NewRequest("GET", "/debug/queries?batch=000000000000abc0&format=json", nil))
	var got struct {
		Batch   QueryRecord   `json:"batch"`
		Members []QueryRecord `json:"members"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatalf("json batch view: %v\n%s", err, w.Body.String())
	}
	if got.Batch.TraceID != batchID || len(got.Members) != len(memberCosts) {
		t.Fatalf("json batch = %+v with %d members", got.Batch, len(got.Members))
	}

	w = httptest.NewRecorder()
	rec.ServeQueries(w, httptest.NewRequest("GET", "/debug/queries?batch=dead", nil))
	if w.Code != 404 {
		t.Fatalf("missing batch returned %d", w.Code)
	}
}

// TestWriteBatchAttributionTotals pins the table's totals row to the exact
// column sums.
func TestWriteBatchAttributionTotals(t *testing.T) {
	members := []QueryRecord{
		{TraceID: 1, Cost: QueryCost{Cells: 3, Codes: 7, WireBytes: 10}},
		{TraceID: 2, Cost: QueryCost{Cells: 2, Codes: 5, WireBytes: 11}},
	}
	var sb strings.Builder
	WriteBatchAttribution(&sb, members)
	out := sb.String()
	if lines := strings.Count(out, "\n"); lines != len(members)+2 {
		t.Fatalf("table has %d lines, want header+%d+total:\n%s", lines, len(members), out)
	}
	if !strings.Contains(out, "total") || !strings.Contains(out, "12") || !strings.Contains(out, "21B") {
		t.Fatalf("totals row wrong:\n%s", out)
	}
}
