package distsearch

import (
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/hermes"
	"repro/internal/ivf"
	"repro/internal/telemetry"
	"repro/internal/vec"
)

// groupedCluster builds a store, serves every shard from a real node, and
// returns a coordinator plus the per-node registries.
func groupedCluster(t *testing.T, shards int, opts DialOptions) (*corpus.Corpus, *Coordinator, []*telemetry.Registry) {
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
	regs := make([]*telemetry.Registry, shards)
	for i, shard := range st.Shards {
		node, err := NewNode(i, shard.Index, nil)
		if err != nil {
			t.Fatal(err)
		}
		regs[i] = telemetry.NewRegistry()
		node.SetTelemetry(regs[i])
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
	return c, co, regs
}

// TestSearchBatchGroupedWire proves grouped distributed batches return the
// same result sets as ungrouped ones, and that the nodes actually took the
// grouped path (groupscan counters move only when the flag is on).
func TestSearchBatchGroupedWire(t *testing.T) {
	const shards = 3
	c, co, regs := groupedCluster(t, shards, DialOptions{})
	qs := c.Queries(16, 23)
	queries := make([][]float32, qs.Vectors.Len())
	for i := range queries {
		queries[i] = qs.Vectors.Row(i)
	}
	p := hermes.DefaultParams()

	plain, err := co.SearchBatch(queries, p)
	if err != nil {
		t.Fatal(err)
	}
	for i, reg := range regs {
		key := `hermes_node_groupscan_queries_total{shard="` + strconv.Itoa(i) + `"}`
		if v := reg.Snapshot()[key]; v > 0 {
			t.Fatalf("ungrouped batch moved groupscan counters on shard %d: %v", i, v)
		}
	}

	co.SetGrouped(true)
	grouped, err := co.SearchBatch(queries, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(grouped.Results, plain.Results) {
		t.Fatal("grouped wire batch differs from ungrouped")
	}
	if !reflect.DeepEqual(grouped.DeepLoads, plain.DeepLoads) {
		t.Fatalf("deep routing changed: %v vs %v", grouped.DeepLoads, plain.DeepLoads)
	}
	groupedQueries := 0.0
	for i, reg := range regs {
		key := `hermes_node_groupscan_queries_total{shard="` + strconv.Itoa(i) + `"}`
		groupedQueries += reg.Snapshot()[key]
	}
	// Every node samples the whole batch through the grouped path.
	if groupedQueries < float64(len(queries)*shards) {
		t.Fatalf("groupscan_queries_total = %v, want >= %d", groupedQueries, len(queries)*shards)
	}
}

// servePerQueryNode runs a fake node for shard shardID backed by a real
// index that ignores Request.Grouped: it serves batch ops per-query and
// leaves Response.GroupedExec false, the degrade the coordinator counts.
func servePerQueryNode(t *testing.T, shardID int, ix *ivf.Index) string {
	return serveFrames(t, func(_ int, req *Request) *Response {
		resp := &Response{ShardID: shardID}
		switch req.Op {
		case OpInfo:
			resp = fakeInfo(shardID, ix.Dim())
			resp.Size = ix.Len()
		case OpSampleBatch:
			resp.Batch = make([][]vec.Neighbor, len(req.Queries))
			for i, q := range req.Queries {
				resp.Batch[i] = ix.Search(q, 1, req.NProbe)
			}
		case OpDeepBatch:
			resp.Batch = make([][]vec.Neighbor, len(req.Queries))
			for i, q := range req.Queries {
				resp.Batch[i] = ix.Search(q, req.K, req.NProbe)
			}
		default:
			resp.Err = "unsupported op"
		}
		return resp
	})
}

// TestGroupedOldNodeDegrades runs a grouped coordinator over a mixed
// cluster — one real node and one node that ignores Request.Grouped — and
// requires the batch to come back identical to the all-per-query answer.
// The per-query node serves the batch without the grouped scan; no error,
// no result drift.
func TestGroupedOldNodeDegrades(t *testing.T) {
	const shards = 2
	c, err := corpus.Generate(corpus.Spec{NumChunks: 700, Dim: 16, NumTopics: shards, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	st, err := hermes.Build(c.Vectors, hermes.BuildOptions{NumShards: shards})
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(0, st.Shards[0].Index, nil)
	if err != nil {
		t.Fatal(err)
	}
	node.SetTelemetry(telemetry.NewRegistry())
	if err := node.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	addrs := []string{node.Addr(), servePerQueryNode(t, 1, st.Shards[1].Index)}
	qs := c.Queries(10, 29)
	queries := make([][]float32, qs.Vectors.Len())
	for i := range queries {
		queries[i] = qs.Vectors.Row(i)
	}
	p := hermes.DefaultParams()

	plain, err := func() (*BatchResult, error) {
		co, err := DialOpts(addrs, DialOptions{Timeout: time.Second, Telemetry: telemetry.NewRegistry()})
		if err != nil {
			return nil, err
		}
		defer co.Close()
		return co.SearchBatch(queries, p)
	}()
	if err != nil {
		t.Fatal(err)
	}

	co, err := DialOpts(addrs, DialOptions{Timeout: time.Second, Telemetry: telemetry.NewRegistry(), Grouped: true})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	grouped, err := co.SearchBatch(queries, p)
	if err != nil {
		t.Fatalf("grouped batch over a mixed-version cluster: %v", err)
	}
	if !reflect.DeepEqual(grouped.Results, plain.Results) {
		t.Fatal("grouped batch over an old node drifted from the per-query answer")
	}
}
