package hermes

import (
	"time"

	"repro/internal/evlog"
	"repro/internal/telemetry"
)

// now is the injectable clock seam for the flight-recorder timestamps and
// the gated scan timing in searchShard; with telemetry and recording
// disabled the hot path never reads it.
var now = time.Now

// storeMetrics holds the resolved metric handles for the in-process search
// path. The zero value (all-nil handles) makes every instrumentation site a
// no-op, so Search needs no telemetry branch.
type storeMetrics struct {
	searches      *telemetry.Counter
	searchSeconds *telemetry.Histogram
	sampleScanned *telemetry.Counter
	deepScanned   *telemetry.Counter
	// scanSeconds times individual shard scans, one handle per shard so the
	// hot path indexes a slice instead of formatting labels. Series are
	// labeled by the shard's quantizer kind, answering "where does scan time
	// go per compression scheme" straight off /metrics.
	scanSeconds []*telemetry.Histogram
}

// scanHist returns the histogram timing scans of shard s, or nil when
// telemetry is disabled (zero value) or s is out of range. Callers gate
// their clock reads on the returned handle and record through
// ObserveDuration: unlike Histogram.Timer, whose stop func is a fresh
// closure capturing the start time, this keeps the scan path
// allocation-free (hotpathalloc flagged the Timer call in searchShard).
func (m *storeMetrics) scanHist(s int) *telemetry.Histogram {
	if s < len(m.scanSeconds) {
		return m.scanSeconds[s]
	}
	return nil
}

// SetEvents points the store's event log at ev and arms the slow-scan
// detector: a shard scan slower than slowScan emits one "store.slow_scan"
// warning carrying the shard and duration. Detection rides the same timing
// gate as SetTelemetry's scan histograms, and the emit itself is gated on
// the threshold crossing, so the common path stays clock-free and
// allocation-free; a nil ev or non-positive slowScan disables it entirely.
func (st *Store) SetEvents(ev *evlog.Log, slowScan time.Duration) {
	st.ev = ev
	st.slowScan = slowScan
}

// SetRecorder points the store's flight-recorder hook at rec: every Search/
// SearchTraced appends one QueryRecord (trace ID, total, phase spans when
// traced, shards deep-searched, vectors scanned). Recording copies the
// record by value into a preallocated ring slot, so the pooled zero-
// allocation scan path is preserved for untraced queries up to that single
// DeepNodes copy. A nil rec disables recording.
func (st *Store) SetRecorder(rec *telemetry.Recorder) { st.rec = rec }

// SetTelemetry publishes the store's search-path metrics (hermes_store_*)
// into reg. Handles are resolved once here, so the per-query overhead is a
// few atomic adds. A nil reg disables instrumentation.
func (st *Store) SetTelemetry(reg *telemetry.Registry) {
	scan := make([]*telemetry.Histogram, len(st.Shards))
	for s, sh := range st.Shards {
		scan[s] = reg.Histogram("hermes_store_scan_seconds",
			"Per-shard scan latency by quantizer kind.", telemetry.DefLatencyBuckets,
			"quantizer", sh.Index.QuantizerName())
	}
	st.met = storeMetrics{
		searches: reg.Counter("hermes_store_searches_total",
			"Hierarchical searches served by the in-process store."),
		searchSeconds: reg.Histogram("hermes_store_search_seconds",
			"End-to-end hierarchical search latency.", telemetry.DefLatencyBuckets),
		sampleScanned: reg.Counter("hermes_store_sample_scanned_total",
			"Vectors scanned by sample phases."),
		deepScanned: reg.Counter("hermes_store_deep_scanned_total",
			"Vectors scanned by deep phases."),
		scanSeconds: scan,
	}
}
