// Command hermes-loadtest drives a running hermes-node cluster (or an
// in-process one it spins up itself) with an open-loop Poisson query load
// and reports achieved throughput and sojourn-latency percentiles — the
// serving-side measurement methodology of the paper's Figure 15.
//
// Against a running cluster:
//
//	hermes-loadtest -nodes 127.0.0.1:7001,127.0.0.1:7002 -index ./idx -qps 200 -queries 1000
//
// Self-contained (builds a store and local TCP nodes itself):
//
//	hermes-loadtest -selfcontained -chunks 10000 -shards 10 -qps 500 -queries 2000
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/batcher"
	"repro/internal/corpus"
	"repro/internal/distsearch"
	"repro/internal/hermes"
	"repro/internal/kvcache"
	"repro/internal/llm"
	"repro/internal/loadgen"
	"repro/internal/telemetry"
	"repro/internal/vec"
	"repro/pkg/indexfile"
)

func main() {
	var (
		nodesFlag  = flag.String("nodes", "", "comma-separated shard node addresses")
		dir        = flag.String("index", "hermes-index", "index directory (for the corpus spec)")
		self       = flag.Bool("selfcontained", false, "build a store and local nodes in-process")
		chunks     = flag.Int("chunks", 10000, "corpus size for -selfcontained")
		dim        = flag.Int("dim", 32, "embedding dim for -selfcontained")
		shards     = flag.Int("shards", 10, "shard count for -selfcontained")
		qps        = flag.Float64("qps", 200, "offered arrival rate")
		queries    = flag.Int("queries", 1000, "number of arrivals")
		conc       = flag.Int("concurrency", 8, "max in-flight queries")
		deep       = flag.Int("deep", 3, "clusters to deep-search")
		seed       = flag.Int64("seed", 23, "generation seed")
		allFlag    = flag.Bool("all", false, "use the naive search-all baseline")
		admin      = flag.String("admin", "", "serve /metrics, /healthz and /debug/pprof on this address (e.g. :8080)")
		rtTimeout  = flag.Duration("rt-timeout", 0, "per-round-trip I/O deadline; 0 leaves round-trips unbounded")
		group      = flag.Bool("group", false, "batch queries through the cell-aware scheduler and send each flush as one batch request per node per phase")
		groupSlack = flag.Duration("group-slack", 2*time.Millisecond, "grouping scheduler slack window: a query with no predicted cell overlap may sit out flushes this long (bounded by the batch wait)")
		kvMiB      = flag.Int64("kvcache", 0, "document KV-cache capacity in MiB (0 disables); retrieved docs feed an LRU so the achievable RAGCache hit rate shows up in /metrics")
		linger     = flag.Duration("linger", 0, "keep the process (and -admin endpoints) up this long after the report")
		slowMS     = flag.Int("slow-ms", 0, "trace every query into a flight recorder, pin those slower than this many milliseconds, and print the slowest at run end (0 disables tracing)")
		traceFlag  = flag.Bool("trace", false, "trace every query; with -group, traces every scheduled batch and prints the slowest batch's waterfall and per-query attribution table at run end")
		costFlag   = flag.Bool("cost", false, "accumulate the per-query cost ledger and print a totals table at run end")
	)
	flag.Parse()

	var rec *telemetry.Recorder
	if *slowMS > 0 || *traceFlag {
		pin := time.Duration(*slowMS) * time.Millisecond
		if *slowMS <= 0 {
			// -trace without -slow-ms: record everything, pin nothing.
			pin = time.Hour
		}
		rec = telemetry.NewRecorder(1024, pin)
	}

	params := hermes.DefaultParams()
	params.DeepClusters = *deep

	tokensPerChunk := corpus.DefaultTokensPerChunk
	var co *distsearch.Coordinator
	var qset *corpus.QuerySet
	// predict is the scheduler's signal for -group: available in
	// -selfcontained mode, where the store is in-process (against remote
	// nodes, flushes pack FIFO).
	var predict batcher.PredictFunc
	switch {
	case *self:
		spec := corpus.Spec{NumChunks: *chunks, Dim: *dim, NumTopics: *shards, Seed: *seed}
		c, err := corpus.Generate(spec)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "building %d-shard store over %d chunks...\n", *shards, *chunks)
		st, err := hermes.Build(c.Vectors, hermes.BuildOptions{NumShards: *shards})
		if err != nil {
			fatal(err)
		}
		lc, err := distsearch.LaunchLocal(st, nil)
		if err != nil {
			fatal(err)
		}
		defer lc.Close()
		co, err = distsearch.DialOpts(lc.Addrs(), distsearch.DialOptions{
			Timeout:          5 * time.Second,
			RoundTripTimeout: *rtTimeout,
			Recorder:         rec,
		})
		if err != nil {
			fatal(err)
		}
		predict = func(q []float32) []uint64 { return st.PredictCells(q, params) }
		qset = c.Queries(*queries, *seed+1)
	case *nodesFlag != "":
		meta, err := indexfile.ReadMeta(*dir)
		if err != nil {
			fatal(err)
		}
		if meta.Corpus.TokensPerChunk > 0 {
			tokensPerChunk = meta.Corpus.TokensPerChunk
		}
		c, err := corpus.Generate(meta.Corpus)
		if err != nil {
			fatal(err)
		}
		co, err = distsearch.DialOpts(strings.Split(*nodesFlag, ","), distsearch.DialOptions{
			Timeout:          5 * time.Second,
			RoundTripTimeout: *rtTimeout,
			Recorder:         rec,
		})
		if err != nil {
			fatal(err)
		}
		qset = c.Queries(*queries, *seed+1)
	default:
		fatal(fmt.Errorf("pass -nodes or -selfcontained"))
	}
	defer co.Close()

	if *admin != "" {
		srv, err := telemetry.ServeAdminOpts(*admin, telemetry.Default, rec)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "admin endpoints on http://%s/metrics\n", srv.Addr())
		if rec != nil {
			fmt.Fprintf(os.Stderr, "flight recorder on http://%s/debug/queries\n", srv.Addr())
		}
	}

	// The optional KV cache replays RAGCache's premise over the real
	// retrieval stream: each retrieved document's prefill state is one
	// entry, sized by the chunk's tokens under the Phi-1.5 spec. The cache
	// is not concurrency-safe, so the load workers share a mutex.
	var (
		cache    *kvcache.Cache
		cacheMu  sync.Mutex
		docBytes int64
	)
	if *kvMiB > 0 {
		var err error
		cache, err = kvcache.New(*kvMiB << 20)
		if err != nil {
			fatal(err)
		}
		docBytes = kvcache.KVBytes(tokensPerChunk, llm.Phi15.KVBytesPerToken())
		telemetry.Default.RegisterCollector(func(r *telemetry.Registry) {
			cacheMu.Lock()
			s := cache.Stats()
			cacheMu.Unlock()
			s.Collect(r)
		})
		fmt.Fprintf(os.Stderr, "kv cache: %d MiB capacity, %.1f KiB per document\n",
			*kvMiB, float64(docBytes)/1024)
	}

	fmt.Fprintf(os.Stderr, "offered load: %.0f QPS x %d queries, concurrency %d, deep=%d, search-all=%v, scheduled=%v\n",
		*qps, *queries, *conc, *deep, *allFlag, *group)

	// The cost ledger and slowest-batch tracking are shared by the load
	// workers and the batcher's flush goroutine.
	var (
		costMu    sync.Mutex
		costTotal telemetry.QueryCost
		costN     int

		slowBatchMu    sync.Mutex
		slowBatchID    uint64
		slowBatchWall  time.Duration
		slowBatchCosts []telemetry.QueryCost
	)

	// -group puts the cell-aware scheduler in front of the cluster: arrivals
	// form batches (packed by predicted cell overlap when the predictor is
	// available), and every batch travels as one batch request per node per
	// phase.
	var bat *batcher.Batcher
	if *group {
		if *allFlag {
			fatal(fmt.Errorf("-group and -all are mutually exclusive"))
		}
		var err error
		bat, err = batcher.New(batcher.Config{
			MaxBatch: *conc,
			// The wait window trades queueing delay for batch size; twice
			// the slack keeps held-back queries inside one extra flush.
			MaxWait:    2 * *groupSlack,
			GroupSlack: *groupSlack,
			Predict:    predict,
			Telemetry:  telemetry.Default,
			// Each flush travels as one batch under the batcher-minted
			// identity; nodes ship the per-query ledger back.
			ProcessBatch: func(batchID uint64, batch [][]float32) ([][]vec.Neighbor, error) {
				var tr *telemetry.Trace
				if *traceFlag {
					tr = telemetry.NewTraceWithID(batchID)
				}
				flushStart := time.Now()
				res, err := co.SearchBatchTraced(batch, params, tr)
				if err != nil {
					return nil, err
				}
				if *costFlag {
					costMu.Lock()
					for _, c := range res.Costs {
						costTotal.Add(c)
					}
					costN += len(batch)
					costMu.Unlock()
				}
				if tr != nil {
					wall := time.Since(flushStart)
					slowBatchMu.Lock()
					if wall > slowBatchWall {
						slowBatchWall = wall
						slowBatchID = res.BatchID
						slowBatchCosts = res.Costs
					}
					slowBatchMu.Unlock()
				}
				return res.Results, nil
			},
		})
		if err != nil {
			fatal(err)
		}
	}

	rep, err := loadgen.Run(loadgen.Config{
		TargetQPS:   *qps,
		Queries:     *queries,
		Concurrency: *conc,
		Seed:        *seed,
	}, func(i int) error {
		q := qset.Vectors.Row(i % qset.Vectors.Len())
		var neighbors []vec.Neighbor
		var err error
		switch {
		case bat != nil:
			// Batch tracing and cost accounting happen in the ProcessBatch
			// closure — one trace per flush, not per query.
			neighbors, err = bat.Search(q)
		case *allFlag:
			var res *distsearch.Result
			res, err = co.SearchAll(q, params)
			if res != nil {
				neighbors = res.Neighbors
			}
		case rec != nil:
			// Trace every query so slow outliers land in the recorder with
			// their full cross-node breakdown attached.
			var res *distsearch.Result
			res, err = co.SearchTraced(q, params, telemetry.NewTrace())
			if res != nil {
				neighbors = res.Neighbors
				if *costFlag {
					costMu.Lock()
					costTotal.Add(res.Cost)
					costN++
					costMu.Unlock()
				}
			}
		default:
			var res *distsearch.Result
			res, err = co.Search(q, params)
			if res != nil {
				neighbors = res.Neighbors
				if *costFlag {
					costMu.Lock()
					costTotal.Add(res.Cost)
					costN++
					costMu.Unlock()
				}
			}
		}
		if err != nil {
			return err
		}
		if cache != nil {
			cacheMu.Lock()
			for _, n := range neighbors {
				cache.Lookup(n.ID, docBytes)
			}
			cacheMu.Unlock()
		}
		return nil
	})
	if bat != nil {
		bat.Close()
	}
	if err != nil {
		fatal(err)
	}

	fmt.Printf("completed %d/%d (failed %d) in %v\n", rep.Completed, rep.Offered, rep.Failed, rep.Wall)
	fmt.Printf("achieved throughput: %.1f QPS (offered %.1f)\n", rep.AchievedQPS, *qps)
	fmt.Printf("sojourn latency: mean %v  p50 %v  p95 %v  p99 %v  max %v\n",
		rep.Sojourn.Mean, rep.Sojourn.P50, rep.Sojourn.P95, rep.Sojourn.P99, rep.Sojourn.Max)
	fmt.Printf("service latency: mean %v  p50 %v  p95 %v\n",
		rep.Service.Mean, rep.Service.P50, rep.Service.P95)
	if bat != nil {
		s := bat.Stats()
		fmt.Printf("scheduler: %d flushes, %.1f queries/batch, %d slack holdbacks\n",
			s.Flushes, s.MeanBatch, s.Holdbacks)
	}
	if cache != nil {
		cacheMu.Lock()
		s := cache.Stats()
		cacheMu.Unlock()
		fmt.Printf("kv cache: %.1f%% hit rate (%d hits / %d lookups, %d evictions)\n",
			100*s.HitRate(), s.Hits, s.Hits+s.Misses, s.Evictions)
	}
	if *costFlag {
		printCost(costTotal, costN)
	}
	if rec != nil && *slowMS > 0 {
		printSlowest(rec, *slowMS)
	}
	if bat != nil && *traceFlag {
		printSlowestBatch(rec, slowBatchID, slowBatchWall, slowBatchCosts)
	}
	if *linger > 0 {
		fmt.Fprintf(os.Stderr, "lingering %v for admin scrapes...\n", *linger)
		time.Sleep(*linger)
	}
}

// printSlowest renders the flight recorder's pinned outliers — trace ID and
// per-phase breakdown — so the slowest queries of the run are explainable
// without re-running it. With -linger and -admin the same records stay
// queryable at /debug/queries?trace=<id>.
func printSlowest(rec *telemetry.Recorder, slowMS int) {
	slow := rec.Slow(10)
	if len(slow) == 0 {
		fmt.Printf("slowest queries: none above the %dms pin threshold\n", slowMS)
		return
	}
	fmt.Printf("slowest queries (>= %dms, slowest first):\n", slowMS)
	for _, qr := range slow {
		fmt.Printf("  %016x total=%-12v busy=%-12v deep=%v scanned=%d",
			qr.TraceID, qr.Total, qr.Busy, qr.DeepNodes, qr.Scanned)
		if qr.Err != "" {
			fmt.Printf(" err=%q", qr.Err)
		}
		if s := qr.PhaseSummary(); s != "" {
			fmt.Printf("\n      %s", s)
		}
		fmt.Println()
	}
}

// printCost renders the run's accumulated cost ledger: totals across all
// completed queries plus the per-query mean — the -cost table.
func printCost(total telemetry.QueryCost, n int) {
	fmt.Printf("cost ledger (%d queries):\n", n)
	if n == 0 {
		return
	}
	row := func(name string, v int64, unit string) {
		fmt.Printf("  %-16s %14d%-3s  mean %.1f%s/query\n", name, v, unit, float64(v)/float64(n), unit)
	}
	row("cells probed", total.Cells, "")
	row("codes scanned", total.Codes, "")
	row("wire bytes", total.WireBytes, "B")
	if total.ScanNanos > 0 {
		fmt.Printf("  %-16s %14v     mean %v/query\n", "scan time",
			time.Duration(total.ScanNanos), time.Duration(total.ScanNanos/int64(n)))
	}
}

// printSlowestBatch renders the slowest scheduled batch of a -group -trace
// run: the stitched cross-node waterfall (batch phase spans appear once per
// node, not once per query) followed by the per-query attribution table. The
// records come from the flight recorder under the batch's identity; if they
// were evicted by later traffic, the attribution table is rebuilt from the
// batch result kept aside at flush time.
func printSlowestBatch(rec *telemetry.Recorder, batchID uint64, wall time.Duration, costs []telemetry.QueryCost) {
	if batchID == 0 {
		fmt.Println("slowest scheduled batch: none (no batches flushed)")
		return
	}
	fmt.Printf("slowest scheduled batch: %016x wall=%v queries=%d\n", batchID, wall, len(costs))
	batch, members, ok := rec.Batch(batchID)
	if ok && len(batch.Spans) > 0 {
		fmt.Println(telemetry.FormatWaterfall(batch.TraceID, batch.Spans))
	}
	if !ok || len(members) == 0 {
		members = make([]telemetry.QueryRecord, len(costs))
		for i, c := range costs {
			members[i] = telemetry.QueryRecord{Cost: c}
		}
	}
	fmt.Println("per-query attribution:")
	telemetry.WriteBatchAttribution(os.Stdout, members)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hermes-loadtest:", err)
	os.Exit(1)
}
