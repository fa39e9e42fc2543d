package distsearch

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/evlog"
	"repro/internal/hermes"
	"repro/internal/telemetry"
	"repro/internal/vec"
)

// telemetryCluster is cluster() with an isolated registry on both sides so
// assertions see exactly this test's traffic.
func telemetryCluster(t testing.TB, chunks, shards int) (*Coordinator, *corpus.Corpus, *telemetry.Registry) {
	t.Helper()
	c, err := corpus.Generate(corpus.Spec{NumChunks: chunks, Dim: 16, NumTopics: shards, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	st, err := hermes.Build(c.Vectors, hermes.BuildOptions{NumShards: shards})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	var nodes []*Node
	var addrs []string
	for i, shard := range st.Shards {
		node, err := NewNode(i, shard.Index, nil)
		if err != nil {
			t.Fatal(err)
		}
		node.SetTelemetry(reg)
		if err := node.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
		addrs = append(addrs, node.Addr())
	}
	co, err := DialOpts(addrs, DialOptions{Timeout: time.Second, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := co.Close(); err != nil {
			t.Errorf("close coordinator: %v", err)
		}
		for _, n := range nodes {
			if err := n.Close(); err != nil {
				t.Errorf("close node: %v", err)
			}
		}
	})
	return co, c, reg
}

// TestTracedQueryProducesOneSpanPerPhase is the end-to-end tracing test: a
// traced query records exactly one span per coordinator phase plus the full
// set of node-shipped spans from every contacted shard, and the trace ID
// demonstrably reaches every shard node over the wire.
func TestTracedQueryProducesOneSpanPerPhase(t *testing.T) {
	const shards = 4
	co, c, reg := telemetryCluster(t, 1200, shards)
	qs := c.Queries(1, 11)
	p := hermes.DefaultParams()

	tr := telemetry.NewTrace()
	res, err := co.SearchTraced(qs.Vectors.Row(0), p, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) == 0 {
		t.Fatal("traced query returned nothing")
	}

	counts := make(map[string]int)
	nodeSpansBy := make(map[int]int)
	for _, s := range tr.Spans() {
		counts[s.Name]++
		if s.Duration < 0 {
			t.Errorf("span %s has negative duration %v", s.Name, s.Duration)
		}
		if s.Node != telemetry.NodeLocal {
			nodeSpansBy[s.Node]++
		}
	}
	for _, phase := range []string{"sample_scatter", "rank", "deep_gather"} {
		if counts[phase] != 1 {
			t.Errorf("phase %s recorded %d spans, want exactly 1 (all: %v)", phase, counts[phase], counts)
		}
	}
	// Node span shipping: every contacted node (all shards sampled, the top
	// DeepClusters deep-searched) ships one span per node-side phase.
	contacts := shards + len(res.DeepNodes)
	for _, phase := range []string{"decode", "probe_select", "list_scan", "topk_merge", "encode"} {
		if counts[phase] != contacts {
			t.Errorf("node phase %s recorded %d spans, want %d (one per contacted node; all: %v)",
				phase, counts[phase], contacts, counts)
		}
	}
	if len(counts) != 8 {
		t.Errorf("unexpected extra span names: %v", counts)
	}
	for shard := 0; shard < shards; shard++ {
		if nodeSpansBy[shard] < 5 {
			t.Errorf("shard %d shipped %d spans, want >= 5 (sampled at minimum)", shard, nodeSpansBy[shard])
		}
	}
	durs := tr.Durations()
	if durs["sample_scatter"] <= 0 || durs["deep_gather"] <= 0 {
		t.Errorf("network phases must take measurable time: %v", durs)
	}

	// The trace ID traveled to the nodes: every sample request (one per
	// shard) and every deep request carried it.
	traced := int64(0)
	snap := reg.Snapshot()
	for s := 0; s < shards; s++ {
		traced += int64(snap[fmt.Sprintf(`hermes_node_traced_requests_total{shard="%d"}`, s)])
	}
	wantTraced := int64(shards + len(res.DeepNodes))
	if traced != wantTraced {
		t.Errorf("nodes saw %d traced requests, want %d (sample to %d shards + %d deep)",
			traced, wantTraced, shards, len(res.DeepNodes))
	}

	if !strings.Contains(tr.Breakdown(), "sample_scatter=") {
		t.Errorf("breakdown missing phase: %s", tr.Breakdown())
	}

	// The encode span times the node's real encode of the reply frame: it
	// is the reply's last span, measured, and starts after topk_merge ends
	// (offsets within one reply share the node's request start).
	for _, op := range []Op{OpSample, OpDeep} {
		resp, err := co.nodes[0].roundTrip(&Request{Op: op, Query: qs.Vectors.Row(0), K: p.K, NProbe: p.DeepNProbe, TraceID: tr.ID()})
		if err != nil {
			t.Fatal(err)
		}
		byName := make(map[string]WireSpan)
		for _, ws := range resp.Spans {
			byName[ws.Name] = ws
		}
		enc, ok := byName["encode"]
		merge := byName["topk_merge"]
		switch {
		case !ok || resp.Spans[len(resp.Spans)-1].Name != "encode":
			t.Errorf("%s reply spans %+v do not end with encode", opName(op), resp.Spans)
		case enc.DurNanos <= 0:
			t.Errorf("%s encode span DurNanos = %d, want > 0", opName(op), enc.DurNanos)
		case enc.OffsetNanos < merge.OffsetNanos+merge.DurNanos:
			t.Errorf("%s encode offset %d before topk_merge ends at %d", opName(op), enc.OffsetNanos, merge.OffsetNanos+merge.DurNanos)
		}
	}
}

// TestCoordinatorMetrics checks the request counters, per-node round-trip
// histograms, byte counters, and the settled in-flight gauge after real
// traffic.
func TestCoordinatorMetrics(t *testing.T) {
	const shards = 4
	const queries = 8
	co, c, reg := telemetryCluster(t, 1200, shards)
	qs := c.Queries(queries, 13)
	p := hermes.DefaultParams()
	for i := 0; i < queries; i++ {
		if _, err := co.Search(qs.Vectors.Row(i), p); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()

	if got := snap[`hermes_distsearch_requests_total{op="sample"}`]; got != queries*shards {
		t.Errorf("sample round-trips = %v, want %d", got, queries*shards)
	}
	wantDeep := float64(queries * p.DeepClusters)
	if got := snap[`hermes_distsearch_requests_total{op="deep"}`]; got != wantDeep {
		t.Errorf("deep round-trips = %v, want %v", got, wantDeep)
	}
	if got := snap["hermes_coordinator_queries_total"]; got != queries {
		t.Errorf("queries = %v, want %d", got, queries)
	}
	if got := snap["hermes_distsearch_inflight"]; got != 0 {
		t.Errorf("in-flight gauge = %v after all queries returned, want 0", got)
	}
	if got := snap[`hermes_coordinator_phase_seconds{phase="sample"}:count`]; got != queries {
		t.Errorf("sample phase observations = %v, want %d", got, queries)
	}
	for s := 0; s < shards; s++ {
		rt := snap[fmt.Sprintf(`hermes_distsearch_roundtrip_seconds{node="%d"}:count`, s)]
		if rt < queries { // every node gets at least the sample request per query
			t.Errorf("node %d round-trip count = %v, want >= %d", s, rt, queries)
		}
		if sent := snap[fmt.Sprintf(`hermes_distsearch_bytes_sent_total{node="%d"}`, s)]; sent <= 0 {
			t.Errorf("node %d bytes sent = %v, want > 0", s, sent)
		}
		if recv := snap[fmt.Sprintf(`hermes_distsearch_bytes_recv_total{node="%d"}`, s)]; recv <= 0 {
			t.Errorf("node %d bytes recv = %v, want > 0", s, recv)
		}
	}
	if got := snap["hermes_distsearch_errors_total"]; got != 0 {
		t.Errorf("errors = %v, want 0", got)
	}
}

// TestOpStatsReturnsTelemetrySnapshot is the satellite: Stats() now ships
// each node's full metric snapshot, not just the served-request counters.
func TestOpStatsReturnsTelemetrySnapshot(t *testing.T) {
	co, c, _ := telemetryCluster(t, 1200, 3)
	qs := c.Queries(4, 17)
	for i := 0; i < 4; i++ {
		if _, err := co.Search(qs.Vectors.Row(i), hermes.DefaultParams()); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := co.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, ns := range stats {
		if len(ns.Telemetry) == 0 {
			t.Fatalf("node %d returned no telemetry snapshot", ns.ShardID)
		}
		key := fmt.Sprintf(`hermes_node_requests_total{op="sample",shard="%d"}`, ns.ShardID)
		if got := ns.Telemetry[key]; got != 4 {
			t.Errorf("node %d %s = %v, want 4", ns.ShardID, key, got)
		}
		lat := fmt.Sprintf(`hermes_node_request_seconds{op="sample",shard="%d"}:count`, ns.ShardID)
		if got := ns.Telemetry[lat]; got != 4 {
			t.Errorf("node %d %s = %v, want 4", ns.ShardID, lat, got)
		}
		// The per-quantizer scan histogram covers at least the sample scans
		// (labels render sorted, quantizer before shard).
		scan := fmt.Sprintf(`hermes_node_scan_seconds{quantizer="SQ8",shard="%d"}:count`, ns.ShardID)
		if got := ns.Telemetry[scan]; got < 4 {
			t.Errorf("node %d %s = %v, want >= 4", ns.ShardID, scan, got)
		}
	}
}

// hangingNode answers the OpInfo handshake correctly, then swallows every
// subsequent request without replying — the failure mode the per-round-trip
// deadline exists for.
func hangingNode(t *testing.T, dim int) string {
	return serveFrames(t, func(_ int, req *Request) *Response {
		if req.Op == OpInfo {
			return fakeInfo(0, dim)
		}
		return nil
	})
}

// TestRoundTripDeadlineUnsticksHungNode is the satellite fix: without
// per-round-trip deadlines this test would block forever on a node that
// accepted the connection and went silent.
func TestRoundTripDeadlineUnsticksHungNode(t *testing.T) {
	const dim = 16
	addr := hangingNode(t, dim)

	reg := telemetry.NewRegistry()
	co, err := DialOpts([]string{addr}, DialOptions{
		Timeout:          time.Second,
		RoundTripTimeout: 100 * time.Millisecond,
		Telemetry:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = co.Close() }()

	q := make([]float32, dim)
	start := time.Now()
	_, err = co.Search(q, hermes.DefaultParams())
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("search against a hung node must fail")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadline did not bound the stall: took %v", elapsed)
	}
	snap := reg.Snapshot()
	if got := snap["hermes_distsearch_deadline_hits_total"]; got < 1 {
		t.Errorf("deadline hits = %v, want >= 1", got)
	}
	if got := snap["hermes_distsearch_errors_total"]; got < 1 {
		t.Errorf("errors = %v, want >= 1", got)
	}
}

// staleReplyNode answers the OpInfo handshake, delays the reply to the
// first sample past the caller's deadline (ID 111: the late reply of a
// timed-out request), and answers every later sample at once with ID 222.
// late is closed as the delayed reply is handed to the connection.
func staleReplyNode(t *testing.T, dim int, delay time.Duration) (addr string, late <-chan struct{}) {
	lateCh := make(chan struct{})
	var once sync.Once
	addr = serveFrames(t, func(_ int, req *Request) *Response {
		switch req.Op {
		case OpInfo:
			return fakeInfo(0, dim)
		case OpSample:
			first := false
			once.Do(func() { first = true })
			if first {
				time.Sleep(delay)
				close(lateCh)
				return &Response{Neighbors: []vec.Neighbor{{ID: 111}}}
			}
			return &Response{Neighbors: []vec.Neighbor{{ID: 222}}}
		}
		return &Response{Err: "unexpected op"}
	})
	return addr, lateCh
}

// midFrameNode answers the OpInfo handshake; on its first connection it
// then writes only the first bytes of the first sample reply and stalls.
// Every later connection answers samples at once with ID 222.
func midFrameNode(t *testing.T, dim int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	t.Cleanup(func() {
		close(done)
		_ = ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for connIdx := 0; ; connIdx++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(conn net.Conn, connIdx int) {
				defer wg.Done()
				defer func() { _ = conn.Close() }()
				var s frameStream
				s.reset(conn)
				for {
					id, frame, _, err := s.read()
					if err != nil {
						return
					}
					var req Request
					if err := decodeRequest(frame, &req); err != nil {
						return
					}
					resp := fakeInfo(0, dim)
					if req.Op == OpSample {
						resp = &Response{Neighbors: []vec.Neighbor{{ID: 222}}}
					}
					buf, err := encodeReply(s.buf, id, req.Op, resp, 0)
					if err != nil || endFrame(buf) != nil {
						return
					}
					s.buf = buf
					if req.Op == OpSample && connIdx == 0 {
						_, _ = conn.Write(buf[:5])
						<-done
						return
					}
					if _, err := conn.Write(buf); err != nil {
						return
					}
				}
			}(conn, connIdx)
		}
	}()
	return ln.Addr().String()
}

// TestTimeoutPoisonsConnection pins which deadline expiries poison a
// connection. One that fires before any byte of the reply leaves the
// stream at a frame boundary: the retry runs on the same connection, skips
// the node's late reply (ID 111) by its request ID, counts it, and gets
// the fresh reply (ID 222) without a redial. One that fires mid-frame
// leaves the stream position unknown: the connection is poisoned and the
// retry redials.
func TestTimeoutPoisonsConnection(t *testing.T) {
	const dim = 8
	q := make([]float32, dim)
	dial := func(t *testing.T, addr string) (*nodeClient, *telemetry.Registry, *evlog.Log) {
		reg := telemetry.NewRegistry()
		ev := evlog.New(evlog.Config{Capacity: 64})
		co, err := DialOpts([]string{addr}, DialOptions{
			Timeout:          time.Second,
			RoundTripTimeout: 100 * time.Millisecond,
			Telemetry:        reg,
			Events:           ev,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = co.Close() })
		return co.nodes[0], reg, ev
	}
	countEvents := func(ev *evlog.Log, name string) int {
		n := 0
		for _, e := range ev.Events() {
			if e.Name == name {
				n++
			}
		}
		return n
	}

	t.Run("before reply", func(t *testing.T) {
		addr, late := staleReplyNode(t, dim, 300*time.Millisecond)
		n, reg, ev := dial(t, addr)
		conn := n.stream.conn
		if _, err := n.roundTrip(&Request{Op: OpSample, Query: q, NProbe: 1}); err == nil {
			t.Fatal("round-trip against the delayed node must time out")
		}
		// Retry once the node sends its late reply: it arrives first on
		// the connection, ahead of the retry's own.
		<-late

		resp, err := n.roundTrip(&Request{Op: OpSample, Query: q, NProbe: 1})
		if err != nil {
			t.Fatalf("retry after timeout must succeed: %v", err)
		}
		if len(resp.Neighbors) != 1 || resp.Neighbors[0].ID != 222 {
			t.Fatalf("retry served a stale response: %+v", resp.Neighbors)
		}
		snap := reg.Snapshot()
		if got := snap["hermes_distsearch_deadline_hits_total"]; got != 1 {
			t.Errorf("deadline hits = %v, want 1", got)
		}
		if got := snap["hermes_distsearch_stale_replies_total"]; got != 1 {
			t.Errorf("stale replies = %v, want 1", got)
		}
		if n.stream.conn != conn || countEvents(ev, "node.redial") != 0 || countEvents(ev, "conn.poisoned") != 0 {
			t.Errorf("a deadline before the reply must not redial (same conn %v, events %d redial %d poisoned)",
				n.stream.conn == conn, countEvents(ev, "node.redial"), countEvents(ev, "conn.poisoned"))
		}
	})

	t.Run("mid frame", func(t *testing.T) {
		n, reg, ev := dial(t, midFrameNode(t, dim))
		conn := n.stream.conn
		if _, err := n.roundTrip(&Request{Op: OpSample, Query: q, NProbe: 1}); err == nil {
			t.Fatal("round-trip against a stalled half frame must time out")
		}
		resp, err := n.roundTrip(&Request{Op: OpSample, Query: q, NProbe: 1})
		if err != nil {
			t.Fatalf("retry must redial and succeed: %v", err)
		}
		if len(resp.Neighbors) != 1 || resp.Neighbors[0].ID != 222 {
			t.Fatalf("retry got %+v", resp.Neighbors)
		}
		if got := reg.Snapshot()["hermes_distsearch_deadline_hits_total"]; got != 1 {
			t.Errorf("deadline hits = %v, want 1", got)
		}
		if n.stream.conn == conn || countEvents(ev, "conn.poisoned") != 1 || countEvents(ev, "node.redial") != 1 {
			t.Errorf("a mid-frame deadline must poison and redial (new conn %v, events %d poisoned %d redial)",
				n.stream.conn != conn, countEvents(ev, "conn.poisoned"), countEvents(ev, "node.redial"))
		}
	})
}
