package distsearch

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/hermes"
	"repro/internal/hwmodel"
	"repro/internal/telemetry"
	"repro/internal/vec"
)

// recordedCluster is telemetryCluster plus a flight recorder wired through
// DialOptions and the DVFS energy model enabled, i.e. the full observability
// stack a production deployment would run.
func recordedCluster(t testing.TB, chunks, shards int) (*Coordinator, *corpus.Corpus, *telemetry.Registry, *telemetry.Recorder) {
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
	rec := telemetry.NewRecorder(64, 0)
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
	co, err := DialOpts(addrs, DialOptions{Timeout: time.Second, Telemetry: reg, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if err := co.EnableEnergyModel(hwmodel.XeonGold6448Y, 256); err != nil {
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
	return co, c, reg, rec
}

// scrape fetches one admin endpoint off the test server and returns the body.
func scrape(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// sumSeries sums every sample of the named metric in a Prometheus text page.
func sumSeries(t *testing.T, page, name string) (float64, int) {
	t.Helper()
	var sum float64
	var n int
	for _, line := range strings.Split(page, "\n") {
		if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "# ") {
			continue
		}
		rest := line[len(name):]
		if len(rest) > 0 && rest[0] != '{' && rest[0] != ' ' {
			continue // longer metric name sharing the prefix
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		sum += v
		n++
	}
	return sum, n
}

// TestClusterTracingEndToEnd runs the full observability path over a real TCP
// cluster: a traced query must yield node-side spans from every probed shard
// in the coordinator's waterfall, /debug/queries?trace=<id> must return the
// flight-recorder record over real HTTP, and the scraped /metrics page must
// carry per-shard deep-search load, the imbalance gauge, and modeled per-node
// energy series whose joules increase monotonically across scrapes.
func TestClusterTracingEndToEnd(t *testing.T) {
	const shards = 4
	co, c, reg, rec := recordedCluster(t, 1200, shards)
	srv := httptest.NewServer(telemetry.NewAdminMuxOpts(reg, rec))
	defer srv.Close()

	qs := c.Queries(1, 11)
	p := hermes.DefaultParams()
	tr := telemetry.NewTrace()
	res, err := co.SearchTraced(qs.Vectors.Row(0), p, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) == 0 || len(res.DeepNodes) == 0 {
		t.Fatalf("traced query returned nothing: %+v", res)
	}

	// Every probed shard (all of them: the sample phase scatters to every
	// node) contributed node-side spans to the waterfall.
	spansByNode := make(map[int]int)
	for _, s := range tr.Spans() {
		if s.Node != telemetry.NodeLocal {
			spansByNode[s.Node]++
		}
	}
	for shard := 0; shard < shards; shard++ {
		if spansByNode[shard] == 0 {
			t.Errorf("shard %d shipped no spans into the waterfall (by node: %v)", shard, spansByNode)
		}
	}
	waterfall := tr.Waterfall()
	for _, phase := range []string{"sample_scatter", "list_scan", "encode"} {
		if !strings.Contains(waterfall, phase) {
			t.Errorf("waterfall missing %s:\n%s", phase, waterfall)
		}
	}

	// The flight recorder serves the record over real HTTP, by trace ID.
	code, body := scrape(t, fmt.Sprintf("%s/debug/queries?trace=%016x", srv.URL, tr.ID()))
	if code != http.StatusOK {
		t.Fatalf("/debug/queries?trace=: status %d, body %q", code, body)
	}
	for _, want := range []string{fmt.Sprintf("%016x", tr.ID()), "list_scan", "deep="} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/queries?trace= body missing %q:\n%s", want, body)
		}
	}
	code, listing := scrape(t, srv.URL+"/debug/queries")
	if code != http.StatusOK || !strings.Contains(listing, fmt.Sprintf("%016x", tr.ID())) {
		t.Errorf("/debug/queries listing (status %d) missing the trace:\n%s", code, listing)
	}

	// First scrape: load, imbalance, and energy series are all present.
	_, page := scrape(t, srv.URL+"/metrics")
	if _, n := sumSeries(t, page, "hermes_coordinator_shard_deep_total"); n == 0 {
		t.Error("/metrics missing hermes_coordinator_shard_deep_total")
	}
	if _, n := sumSeries(t, page, "hermes_coordinator_load_imbalance_ratio"); n == 0 {
		t.Error("/metrics missing hermes_coordinator_load_imbalance_ratio")
	}
	joules1, n := sumSeries(t, page, "hermes_energy_model_joules")
	if n != shards {
		t.Fatalf("want %d hermes_energy_model_joules series, got %d", shards, n)
	}
	if _, n := sumSeries(t, page, "hermes_energy_model_ghz"); n != shards {
		t.Errorf("want %d hermes_energy_model_ghz series, got %d", shards, n)
	}

	// More load plus a nonzero window, then scrape again: cumulative joules
	// are monotonic (idle windows still accrue idle power).
	for i := 0; i < 4; i++ {
		if _, err := co.Search(qs.Vectors.Row(0), p); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(5 * time.Millisecond)
	_, page = scrape(t, srv.URL+"/metrics")
	joules2, _ := sumSeries(t, page, "hermes_energy_model_joules")
	if !(joules2 > joules1) {
		t.Errorf("modeled joules must increase across scrapes: %v then %v", joules1, joules2)
	}
}

// serveMinimalNode runs a fake shard node that implements only the core
// ops: it answers OpInfo/OpSample/OpDeep, never ships spans or cost
// entries, and rejects every other op (OpMetricsSnap included) as
// unsupported — a node built without tracing or federation.
func serveMinimalNode(t *testing.T, shardID, dim int) string {
	return serveFrames(t, func(_ int, req *Request) *Response {
		switch req.Op {
		case OpInfo:
			return fakeInfo(shardID, dim)
		case OpSample:
			return &Response{ShardID: shardID, Neighbors: []vec.Neighbor{{ID: int64(shardID), Score: float32(shardID)}}}
		case OpDeep:
			return &Response{ShardID: shardID, Neighbors: []vec.Neighbor{
				{ID: int64(shardID * 10), Score: float32(shardID)},
				{ID: int64(shardID*10 + 1), Score: float32(shardID) + 0.5},
			}}
		}
		return &Response{Err: "unsupported op"}
	})
}

// TestMixedVersionClusterEmptyWaterfall proves that nodes which do not trace
// are safe to serve traced queries from: the coordinator gets results and
// an empty (coordinator-phases-only) waterfall, not an error.
func TestMixedVersionClusterEmptyWaterfall(t *testing.T) {
	const dim = 16
	var addrs []string
	for i := 0; i < 2; i++ {
		addrs = append(addrs, serveMinimalNode(t, i, dim))
	}

	co, err := DialOpts(addrs, DialOptions{Timeout: time.Second, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	q := make([]float32, dim)
	p := hermes.DefaultParams()
	p.DeepClusters = 1
	tr := telemetry.NewTrace()
	res, err := co.SearchTraced(q, p, tr)
	if err != nil {
		t.Fatalf("traced query against untraced nodes must not error: %v", err)
	}
	if len(res.Neighbors) == 0 {
		t.Fatal("traced query against untraced nodes returned nothing")
	}
	for _, s := range tr.Spans() {
		if s.Node != telemetry.NodeLocal {
			t.Errorf("untraced nodes cannot ship spans, yet got %q from node %d", s.Name, s.Node)
		}
	}
	counts := make(map[string]int)
	for _, s := range tr.Spans() {
		counts[s.Name]++
	}
	for _, phase := range []string{"sample_scatter", "rank", "deep_gather"} {
		if counts[phase] != 1 {
			t.Errorf("coordinator phase %s recorded %d spans, want 1", phase, counts[phase])
		}
	}
	if len(counts) != 3 {
		t.Errorf("waterfall must hold only coordinator phases: %v", counts)
	}
}
