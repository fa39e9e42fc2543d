package distsearch

import (
	"net"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/evlog"
	"repro/internal/hermes"
	"repro/internal/slo"
	"repro/internal/telemetry"
)

// TestMixedVersionFederationDegrades runs a coordinator over one real node
// and one minimal node that does not serve OpMetricsSnap: queries must keep
// working, and ClusterMetrics must report the minimal shard as missing —
// local-only degradation, never an error.
func TestMixedVersionFederationDegrades(t *testing.T) {
	const dim = 16
	c, err := corpus.Generate(corpus.Spec{NumChunks: 400, Dim: dim, NumTopics: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	st, err := hermes.Build(c.Vectors, hermes.BuildOptions{NumShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	nodeReg := telemetry.NewRegistry()
	node, err := NewNode(0, st.Shards[0].Index, nil)
	if err != nil {
		t.Fatal(err)
	}
	node.SetTelemetry(nodeReg)
	if err := node.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	co, err := DialOpts([]string{node.Addr(), serveMinimalNode(t, 1, dim)},
		DialOptions{Timeout: time.Second, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	// The minimal node serves queries.
	p := hermes.DefaultParams()
	p.DeepClusters = 2
	if _, err := co.Search(c.Queries(1, 3).Vectors.Row(0), p); err != nil {
		t.Fatalf("query over the minimal node: %v", err)
	}

	view := co.ClusterMetrics()
	if len(view.Missing) != 1 || view.Missing[0] != 1 {
		t.Errorf("Missing = %v, want [1] (the minimal node)", view.Missing)
	}
	if len(view.Nodes) != 1 || view.Nodes[0].ShardID != 0 {
		t.Fatalf("contributing nodes = %+v, want shard 0 only", view.Nodes)
	}
	flat := telemetry.FlattenFamilies(view.Merged)
	if flat[`hermes_node_requests_total{op="info",shard="0"}`] == 0 {
		t.Errorf("merged view missing the real node's request counters: %v", flat)
	}

	// The refused pull must not have poisoned the minimal node's
	// connection: another query still works.
	if _, err := co.Search(c.Queries(1, 4).Vectors.Row(0), p); err != nil {
		t.Fatalf("query after degraded federation pull: %v", err)
	}
}

// delayProxy forwards TCP bytes to a backend, injecting a per-chunk delay
// on the response direction when enabled — the "artificially slowed node"
// for deadline/SLO tests, with the real node logic untouched behind it.
type delayProxy struct {
	ln      net.Listener
	backend string
	delay   atomic.Int64 // nanoseconds; 0 = transparent
}

func newDelayProxy(t *testing.T, backend string) *delayProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &delayProxy{ln: ln, backend: backend}
	t.Cleanup(func() { ln.Close() })
	//lint:ignore goroutinectx accept loop exits when the cleanup ln.Close unblocks Accept
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			//lint:ignore goroutinectx per-conn forwarder exits when either side closes at test end
			//lint:ignore goroutineleak forwarder unblocks on conn close: cleanup closes the listener-held conns and the coordinator closes its side at test end
			go p.forward(conn)
		}
	}()
	return p
}

func (p *delayProxy) forward(client net.Conn) {
	defer client.Close()
	server, err := net.Dial("tcp", p.backend)
	if err != nil {
		return
	}
	defer server.Close()
	//lint:ignore goroutinectx request pump exits when the client conn closes at test end
	go func() {
		buf := make([]byte, 32<<10)
		for {
			n, err := client.Read(buf)
			if n > 0 {
				if _, werr := server.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}()
	buf := make([]byte, 32<<10)
	for {
		n, err := server.Read(buf)
		if n > 0 {
			if d := p.delay.Load(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			if _, werr := client.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// TestClusterObservabilityEndToEnd is the acceptance e2e for the cluster
// observability plane, over real TCP nodes and real HTTP admin endpoints:
//
//  1. /metrics/cluster serves merged metrics from multiple real nodes;
//  2. /debug/slo flips an objective from healthy to BURNING when one node
//     is artificially slowed past the round-trip deadline;
//  3. /debug/events shows the resulting deadline-hit events, and the slow
//     node's late replies are skipped by request ID and counted.
func TestClusterObservabilityEndToEnd(t *testing.T) {
	const shards = 3
	c, err := corpus.Generate(corpus.Spec{NumChunks: 900, Dim: 16, NumTopics: shards, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	st, err := hermes.Build(c.Vectors, hermes.BuildOptions{NumShards: shards})
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*Node
	var addrs []string
	var proxy *delayProxy
	for i, shard := range st.Shards {
		node, err := NewNode(i, shard.Index, nil)
		if err != nil {
			t.Fatal(err)
		}
		node.SetTelemetry(telemetry.NewRegistry())
		if err := node.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
		if i == shards-1 {
			// The last shard sits behind the delay proxy — the node we
			// will slow down mid-test.
			proxy = newDelayProxy(t, node.Addr())
			addrs = append(addrs, proxy.ln.Addr().String())
		} else {
			addrs = append(addrs, node.Addr())
		}
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()

	coordReg := telemetry.NewRegistry()
	ev := evlog.New(evlog.Config{Capacity: 256})
	co, err := DialOpts(addrs, DialOptions{
		Timeout:          2 * time.Second,
		RoundTripTimeout: 150 * time.Millisecond,
		Telemetry:        coordReg,
		Lenient:          true,
		Events:           ev,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	// SLO: 90% of sample scatters under 50ms. Windows are sized so the
	// whole test fits inside the fast window — the healthy and slowed
	// phases land in the same window and the burn rate is driven purely by
	// the good/bad mix, not wall-clock stepping.
	engine := slo.NewEngineWindows(slo.WindowConfig{
		Fast: time.Hour, FastSlot: time.Minute,
		Slow: 2 * time.Hour, SlowSlot: time.Minute,
	})
	obj := slo.Objective{Name: "scatter", Kind: slo.KindLatency, Target: 0.9, Threshold: 50 * time.Millisecond}
	if err := engine.AddObjective(obj, slo.LatencySource(co.m.phaseSample, obj.Threshold)); err != nil {
		t.Fatal(err)
	}
	engine.Tick() // prime

	mux := telemetry.NewAdminMux(coordReg)
	mux.HandleFunc("/metrics/cluster", co.ServeClusterMetrics)
	mux.HandleFunc("/debug/slo", engine.ServeSLO)
	mux.HandleFunc("/debug/events", ev.ServeEvents)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// Phase 1 — healthy traffic.
	p := hermes.DefaultParams()
	qs := c.Queries(4, 11)
	for i := 0; i < 8; i++ {
		if _, err := co.Search(qs.Vectors.Row(i%4), p); err != nil {
			t.Fatalf("healthy query %d: %v", i, err)
		}
	}

	// /metrics/cluster merges all three real nodes plus the coordinator.
	code, page := scrape(t, srv.URL+"/metrics/cluster")
	if code != 200 {
		t.Fatalf("/metrics/cluster status %d", code)
	}
	if !strings.Contains(page, "# cluster view: coordinator + 3 node(s)") {
		t.Errorf("/metrics/cluster header wrong:\n%.300s", page)
	}
	if sum, n := sumSeries(t, page, "hermes_node_requests_total"); n == 0 || sum == 0 {
		t.Errorf("/metrics/cluster missing merged node request counters (n=%d sum=%v)", n, sum)
	}
	if _, n := sumSeries(t, page, "hermes_coordinator_queries_total"); n == 0 {
		t.Error("/metrics/cluster missing coordinator-side families")
	}
	// Per-node breakdown: one shard's unmerged view.
	code, nodePage := scrape(t, srv.URL+"/metrics/cluster?node=0")
	if code != 200 || !strings.Contains(nodePage, "# node view: shard 0") {
		t.Errorf("per-node breakdown (status %d):\n%.200s", code, nodePage)
	}

	// /debug/slo: healthy.
	_, sloPage := scrape(t, srv.URL+"/debug/slo")
	if !strings.Contains(sloPage, "scatter") || !strings.Contains(sloPage, "healthy") ||
		strings.Contains(sloPage, "BURNING") {
		t.Errorf("pre-slowdown /debug/slo:\n%s", sloPage)
	}

	// Phase 2 — slow the proxied node past the 150ms round-trip deadline.
	proxy.delay.Store(int64(400 * time.Millisecond))
	for i := 0; i < 10; i++ {
		// Lenient mode: queries survive on the healthy shards while the
		// slowed node eats deadline hits.
		if _, err := co.Search(qs.Vectors.Row(i%4), p); err != nil {
			t.Fatalf("slowed-phase query %d: %v", i, err)
		}
	}
	if co.m.deadlineHits.Value() == 0 {
		t.Fatal("slowed node produced no deadline hits; the SLO flip would be vacuous")
	}

	// /debug/slo: burning. 10 of 18 scatters blew the 50ms threshold
	// against a 10% budget.
	_, sloPage = scrape(t, srv.URL+"/debug/slo")
	if !strings.Contains(sloPage, "BURNING") {
		t.Errorf("post-slowdown /debug/slo did not flip to BURNING:\n%s", sloPage)
	}

	// /debug/events: the deadline hits are on the record. The proxy holds
	// whole replies back, so every deadline fires before a reply byte: the
	// connection stays open and the late replies are skipped by ID.
	_, evPage := scrape(t, srv.URL+"/debug/events")
	for _, want := range []string{"deadline.hit", "node.dial"} {
		if !strings.Contains(evPage, want) {
			t.Errorf("/debug/events missing %q:\n%s", want, evPage)
		}
	}
	if got := co.m.staleReplies.Value(); got == 0 {
		t.Error("the slowed node's late replies were not skipped and counted")
	}
}
