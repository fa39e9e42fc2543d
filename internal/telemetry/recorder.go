package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// QueryRecord is one completed query as kept by the flight Recorder: enough
// to answer "what did this query do and where did its time go" after the
// fact, without holding the live *Trace.
type QueryRecord struct {
	TraceID   uint64
	BatchID   uint64 // batch identity; 0 for solo queries
	Start     time.Time
	Total     time.Duration // wall time, request start to reply
	Busy      time.Duration // sum of span durations (> Total under overlap)
	Spans     []Span        // per-phase/per-node breakdown, may be nil
	DeepNodes []int         // shards deep-searched
	Scanned   int64         // vectors scanned across all shards
	Cost      QueryCost     // per-query resource attribution ledger
	Err       string        // empty on success
}

// IsBatch reports whether the record is a batch's summary record
// (the batch identity recorded under its own ID, carrying the shared-phase
// waterfall and the batch totals) rather than a member query.
func (r QueryRecord) IsBatch() bool { return r.BatchID != 0 && r.BatchID == r.TraceID }

// PhaseSummary renders the record's spans compactly on one line in start
// order ("sample_scatter=412µs n3.list_scan=1.1ms ..."), or "" without spans.
func (r QueryRecord) PhaseSummary() string {
	if len(r.Spans) == 0 {
		return ""
	}
	spans := append([]Span(nil), r.Spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	parts := make([]string, len(spans))
	for i, s := range spans {
		parts[i] = fmt.Sprintf("%s=%v", s.Label(), s.Duration)
	}
	return strings.Join(parts, " ")
}

// Waterfall renders the record's spans as the cross-node timing chart.
func (r QueryRecord) Waterfall() string {
	return FormatWaterfall(r.TraceID, r.Spans)
}

// recorderStripes is the lock-stripe count: queries hash to a stripe by
// trace ID, so concurrent recorders on different stripes never contend.
const recorderStripes = 8

type recordRing struct {
	mu   sync.Mutex
	buf  []QueryRecord
	next int
	n    int // valid entries, <= len(buf)
}

func (r *recordRing) add(qr QueryRecord) {
	r.mu.Lock()
	r.buf[r.next] = qr
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

func (r *recordRing) appendAll(dst []QueryRecord) []QueryRecord {
	r.mu.Lock()
	dst = append(dst, r.buf[:r.n]...)
	r.mu.Unlock()
	return dst
}

func (r *recordRing) find(id uint64) (QueryRecord, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Scan newest-first so a reused ID (2^32 wrap) resolves to the latest.
	for i := 0; i < r.n; i++ {
		idx := r.next - 1 - i
		if idx < 0 {
			idx += len(r.buf)
		}
		if r.buf[idx].TraceID == id {
			return r.buf[idx], true
		}
	}
	return QueryRecord{}, false
}

// Recorder is a fixed-capacity flight recorder of completed queries: a
// mutex-striped ring of the most recent QueryRecords plus a second ring that
// pins slow outliers (Total >= the threshold) so a burst of fast queries
// cannot evict the interesting ones. Memory is bounded at construction —
// capacity+slowCap records, preallocated — and eviction is purely
// ring-oldest-first per stripe. Record is allocation-free (records are
// copied by value into preallocated slots); the read side (Recent, Slow,
// Find, HTTP) allocates freely. All methods are safe for concurrent use and
// no-ops on a nil *Recorder.
type Recorder struct {
	slowNanos atomic.Int64
	stripes   []recordRing
	slow      recordRing
}

// NewRecorder builds a recorder keeping the last `capacity` queries
// (default 256 when <= 0) and pinning queries slower than slowThreshold in
// a separate ring of capacity max(8, capacity/4). slowThreshold <= 0
// disables pinning until SetSlowThreshold.
func NewRecorder(capacity int, slowThreshold time.Duration) *Recorder {
	if capacity <= 0 {
		capacity = 256
	}
	stripes := recorderStripes
	if capacity < stripes {
		stripes = 1
	}
	per := (capacity + stripes - 1) / stripes
	rec := &Recorder{stripes: make([]recordRing, stripes)}
	for i := range rec.stripes {
		rec.stripes[i].buf = make([]QueryRecord, per)
	}
	slowCap := capacity / 4
	if slowCap < 8 {
		slowCap = 8
	}
	rec.slow.buf = make([]QueryRecord, slowCap)
	rec.slowNanos.Store(int64(slowThreshold))
	return rec
}

// SetSlowThreshold changes the pin threshold; <= 0 disables pinning.
func (rec *Recorder) SetSlowThreshold(d time.Duration) {
	if rec == nil {
		return
	}
	rec.slowNanos.Store(int64(d))
}

// SlowThreshold returns the current pin threshold (0 = disabled).
func (rec *Recorder) SlowThreshold() time.Duration {
	if rec == nil {
		return 0
	}
	return time.Duration(rec.slowNanos.Load())
}

// Record stores one completed query. Safe from the serving hot path: one
// stripe mutex, no allocation.
func (rec *Recorder) Record(qr QueryRecord) {
	if rec == nil {
		return
	}
	rec.stripes[qr.TraceID%uint64(len(rec.stripes))].add(qr)
	if t := rec.slowNanos.Load(); t > 0 && int64(qr.Total) >= t {
		rec.slow.add(qr)
	}
}

// Recent returns up to max records, most recently started first.
func (rec *Recorder) Recent(max int) []QueryRecord {
	if rec == nil || max <= 0 {
		return nil
	}
	var all []QueryRecord
	for i := range rec.stripes {
		all = rec.stripes[i].appendAll(all)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Start.After(all[j].Start) })
	if len(all) > max {
		all = all[:max]
	}
	return all
}

// Slow returns up to max pinned slow queries, slowest first.
func (rec *Recorder) Slow(max int) []QueryRecord {
	if rec == nil || max <= 0 {
		return nil
	}
	all := rec.slow.appendAll(nil)
	sort.SliceStable(all, func(i, j int) bool { return all[i].Total > all[j].Total })
	if len(all) > max {
		all = all[:max]
	}
	return all
}

// Find looks a trace ID up in both rings (a slow query may have been
// evicted from the recent ring but still be pinned).
func (rec *Recorder) Find(traceID uint64) (QueryRecord, bool) {
	if rec == nil {
		return QueryRecord{}, false
	}
	if qr, ok := rec.stripes[traceID%uint64(len(rec.stripes))].find(traceID); ok {
		return qr, true
	}
	return rec.slow.find(traceID)
}

// Batch collects a batch by its ID: the batch's own summary record
// (the shared-phase waterfall and batch totals, recorded under the batch ID)
// and the member query records that carry the same BatchID, oldest first.
// ok is false when neither the summary nor any member is still retained.
func (rec *Recorder) Batch(batchID uint64) (batch QueryRecord, members []QueryRecord, ok bool) {
	if rec == nil || batchID == 0 {
		return QueryRecord{}, nil, false
	}
	var all []QueryRecord
	for i := range rec.stripes {
		all = rec.stripes[i].appendAll(all)
	}
	all = rec.slow.appendAll(all)
	seen := make(map[uint64]bool, len(all))
	for _, qr := range all {
		if qr.BatchID != batchID || seen[qr.TraceID] {
			continue
		}
		seen[qr.TraceID] = true
		if qr.IsBatch() {
			batch, ok = qr, true
			continue
		}
		members = append(members, qr)
		ok = true
	}
	sort.SliceStable(members, func(i, j int) bool { return members[i].Start.Before(members[j].Start) })
	return batch, members, ok
}

// ServeQueries is the /debug/queries HTTP handler: the recent and pinned
// slow queries as text (default) or JSON (?format=json), ?n=<max> to bound
// the listing, and ?trace=<hex id> for one query's full waterfall.
//
//lint:ignore ctxflow HTTP handler: the response writes are bounded by the owning server's write deadline, and cancellation arrives via r.Context, not a parameter of ours
func (rec *Recorder) ServeQueries(w http.ResponseWriter, r *http.Request) {
	if rec == nil {
		http.Error(w, "flight recorder disabled", http.StatusNotFound)
		return
	}
	q := r.URL.Query()
	asJSON := q.Get("format") == "json"
	if ts := q.Get("trace"); ts != "" {
		id, err := strconv.ParseUint(strings.TrimPrefix(ts, "0x"), 16, 64)
		if err != nil {
			http.Error(w, "trace must be a hex trace ID: "+err.Error(), http.StatusBadRequest)
			return
		}
		qr, ok := rec.Find(id)
		if !ok {
			http.Error(w, fmt.Sprintf("trace %016x not in recorder", id), http.StatusNotFound)
			return
		}
		if asJSON {
			writeJSON(w, qr)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "start=%s total=%v busy=%v deep=%v scanned=%d err=%q\n",
			qr.Start.Format(time.RFC3339Nano), qr.Total, qr.Busy, qr.DeepNodes, qr.Scanned, qr.Err)
		if !qr.Cost.IsZero() {
			fmt.Fprintf(w, "cost: %s\n", qr.Cost)
		}
		if qr.BatchID != 0 && !qr.IsBatch() {
			fmt.Fprintf(w, "batch: %016x (use ?batch=%016x for the batch view)\n", qr.BatchID, qr.BatchID)
		}
		fmt.Fprintln(w, qr.Waterfall())
		return
	}
	if bs := q.Get("batch"); bs != "" {
		id, err := strconv.ParseUint(strings.TrimPrefix(bs, "0x"), 16, 64)
		if err != nil {
			http.Error(w, "batch must be a hex batch ID: "+err.Error(), http.StatusBadRequest)
			return
		}
		batch, members, ok := rec.Batch(id)
		if !ok {
			http.Error(w, fmt.Sprintf("batch %016x not in recorder", id), http.StatusNotFound)
			return
		}
		if asJSON {
			writeJSON(w, struct {
				Batch   QueryRecord   `json:"batch"`
				Members []QueryRecord `json:"members"`
			}{batch, members})
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "batch %016x: %d member queries\n", id, len(members))
		if batch.TraceID != 0 {
			fmt.Fprintf(w, "batch total=%v busy=%v scanned=%d\n", batch.Total, batch.Busy, batch.Scanned)
			if !batch.Cost.IsZero() {
				fmt.Fprintf(w, "batch cost: %s\n", batch.Cost)
			}
			fmt.Fprintln(w, batch.Waterfall())
		}
		fmt.Fprintln(w, "\nper-query attribution:")
		WriteBatchAttribution(w, members)
		return
	}
	n := 32
	if v := q.Get("n"); v != "" {
		if p, err := strconv.Atoi(v); err == nil && p > 0 {
			n = p
		}
	}
	recent, slow := rec.Recent(n), rec.Slow(n)
	if asJSON {
		writeJSON(w, struct {
			SlowThresholdNanos int64         `json:"slow_threshold_nanos"`
			Recent             []QueryRecord `json:"recent"`
			Slow               []QueryRecord `json:"slow"`
		}{int64(rec.SlowThreshold()), recent, slow})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "flight recorder: %d recent, %d pinned slow (threshold %v)\n",
		len(recent), len(slow), rec.SlowThreshold())
	writeRecordList(w, "recent queries (newest first):", recent)
	writeRecordList(w, "pinned slow queries (slowest first):", slow)
	fmt.Fprintln(w, "\nuse ?trace=<id> for one query's waterfall, ?batch=<id> for a batch's attribution, ?format=json for machine output")
}

func writeRecordList(w http.ResponseWriter, title string, recs []QueryRecord) {
	fmt.Fprintln(w, "\n"+title)
	if len(recs) == 0 {
		fmt.Fprintln(w, "  (none)")
		return
	}
	for _, qr := range recs {
		fmt.Fprintf(w, "  %016x total=%-12v busy=%-12v deep=%v scanned=%d", qr.TraceID, qr.Total, qr.Busy, qr.DeepNodes, qr.Scanned)
		if qr.IsBatch() {
			fmt.Fprintf(w, " [batch]")
		} else if qr.BatchID != 0 {
			fmt.Fprintf(w, " batch=%016x", qr.BatchID)
		}
		if !qr.Cost.IsZero() {
			fmt.Fprintf(w, " codes=%d", qr.Cost.Codes)
		}
		if qr.Err != "" {
			fmt.Fprintf(w, " err=%q", qr.Err)
		}
		if s := qr.PhaseSummary(); s != "" {
			fmt.Fprintf(w, "  [%s]", s)
		}
		fmt.Fprintln(w)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	//lint:ignore errdrop the response writer owns delivery; a client gone mid-encode is not actionable
	enc.Encode(v)
}
