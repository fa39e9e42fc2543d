package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/distsearch"
	"repro/internal/hermes"
	"repro/internal/quant"
	"repro/internal/telemetry"
)

// Per-layer replays. Layers the load's spans cannot reach from outside
// (ivf under hermes, quant under ivf, one node under the coordinator) are
// measured by replaying the workload's own queries one layer down, through
// each layer's public API, on an otherwise idle system.

const (
	replayQueries = 300
	// quantCodes is the number of codes each quant replay query scans, in
	// blocks of quantBlock (about one IVF cell).
	quantCodes = 4096
	quantBlock = 128
)

func (b *bench) layers(tr *tracer) error {
	floor, err := b.floorSuite()
	if err != nil {
		return err
	}
	if err := b.quantSuite(); err != nil {
		return err
	}
	ivfUs := b.storeSuite()
	e := b.e
	if e.coord == nil {
		// batch-local serves no sockets; the node and coordinator layers and
		// the mixed suite run on a cluster launched over its store.
		if e.cluster, e.coord, err = launch(e.store); err != nil {
			return err
		}
		defer func() {
			e.close()
			e.cluster, e.coord = nil, nil
		}()
	}
	excess, err := b.nodeSuite(floor)
	if err != nil {
		return err
	}
	other, err := b.coordSuite()
	if err != nil {
		return err
	}
	// A query makes one sample round trip per shard and one deep round trip
	// per deep shard.
	trips := float64(len(e.store.Shards) + params.DeepClusters)
	b.rep.set("distsearch.overhead_vs_ivf", "ratio", (excess*trips+other)/ivfUs)
	settle()
	return b.mixedSuite(tr)
}

// floorSuite measures the benchmark's own loopback echo with a node
// request's and response's payload sizes and returns the RTT in µs.
func (b *bench) floorSuite() (float64, error) {
	rtt, err := floorRTT(4*b.e.spec.dim+64, 128, 2000)
	if err != nil {
		return 0, fmt.Errorf("floor rtt: %w", err)
	}
	mbps, err := floorThroughput(64<<10, 64<<20)
	if err != nil {
		return 0, fmt.Errorf("floor throughput: %w", err)
	}
	b.rep.set("floor.rtt_us", "us", us(rtt))
	b.rep.set("floor.mb_per_s", "MB/s", mbps)
	return us(rtt), nil
}

// quantSuite scans SQ8 codes of the workload's vectors, encoded by a codec
// trained on them, with the batch kernel at the workload's dim.
func (b *bench) quantSuite() error {
	data := b.e.corpus.Vectors
	sq := quant.NewSQ(data.Dim, 8)
	if err := sq.Train(data); err != nil {
		return fmt.Errorf("quant train: %w", err)
	}
	cs := sq.CodeSize()
	n := min(quantCodes, data.Len())
	codes := make([]byte, n*cs)
	for i := 0; i < n; i++ {
		sq.Encode(data.Row(i), codes[i*cs:(i+1)*cs])
	}
	bd := quant.NewBatchDistancer(sq)
	out := make([]float32, quantBlock)
	scan := func(q []float32) {
		bd.BindQuery(q)
		for off := 0; off+quantBlock <= n; off += quantBlock {
			bd.DistanceBatch(codes[off*cs:], quantBlock, out)
		}
	}
	qs := b.e.queries[:replayQueries]
	scan(qs[0])
	var perCode []float64
	for _, q := range qs {
		t0 := time.Now()
		scan(q)
		perCode = append(perCode, float64(time.Since(t0))/float64(n/quantBlock*quantBlock))
	}
	b.rep.set("quant.ns_per_code", "ns", median(perCode))
	// Computed, not measured: the code bytes each distance reads.
	b.rep.set("quant.bytes_per_code", "bytes", float64(cs))
	i := 0
	b.rep.set("quant.allocs_per_call", "count", allocsPerRun(1000, func() {
		bd.BindQuery(qs[i%len(qs)])
		bd.DistanceBatch(codes, quantBlock, out)
		i++
	}))
	return nil
}

// storeSuite replays queries through Store.Search and, for the same
// queries, through every shard's ivf index with the sample parameters and
// through the shards Store.Search deep-searched with the deep parameters.
// It returns the median per-query ivf time in µs.
func (b *bench) storeSuite() float64 {
	st := b.e.store
	qs := b.e.queries[:replayQueries]
	for _, q := range qs[:50] {
		st.Search(q, params)
	}
	var search, sample, deep, self, ivfQ []float64
	var codesDeep, deepCalls, useful, codes int
	for _, q := range qs {
		t0 := time.Now()
		res, stats := st.Search(q, params)
		ts := time.Since(t0)
		codes += stats.SampleScanned + stats.DeepScanned
		final := make(map[int64]bool, len(res))
		for _, n := range res {
			final[n.ID] = true
		}
		t1 := time.Now()
		for _, sh := range st.Shards {
			sh.Index.SearchWithStats(q, 1, params.SampleNProbe)
		}
		tSample := time.Since(t1)
		var tDeep time.Duration
		for _, s := range stats.DeepShards {
			t2 := time.Now()
			got, ds := st.Shards[s].Index.SearchWithStats(q, params.K, params.DeepNProbe)
			tDeep += time.Since(t2)
			codesDeep += ds.VectorsScanned
			deepCalls++
			for _, n := range got {
				if final[n.ID] {
					useful++
					break
				}
			}
		}
		search = append(search, us(ts))
		sample = append(sample, us(tSample))
		deep = append(deep, us(tDeep))
		ivfQ = append(ivfQ, us(tSample+tDeep))
		self = append(self, us(ts-tSample-tDeep))
	}
	b.rep.set("ivf.sample_us.p50", "us", median(sample))
	b.rep.set("ivf.sample_us.p99", "us", quantile(sample, 0.99))
	b.rep.set("ivf.deep_us.p50", "us", median(deep))
	b.rep.set("ivf.deep_us.p99", "us", quantile(deep, 0.99))
	b.rep.set("ivf.codes_per_deep", "count", float64(codesDeep)/float64(deepCalls))
	b.rep.set("hermes.search_us.p50", "us", median(search))
	b.rep.set("hermes.search_us.p99", "us", quantile(search, 0.99))
	b.rep.set("hermes.codes_per_query", "count", float64(codes)/float64(len(qs)))
	b.rep.set("hermes.deep_useful_frac", "ratio", float64(useful)/float64(deepCalls))
	b.rep.set("hermes.self_us", "us", median(self))
	b.rep.set("hermes.ivf_share", "ratio", sum(ivfQ)/sum(search))

	var perQuery []float64
	for i := 0; i < 20; i++ {
		m := b.batchMatrix(i)
		t0 := time.Now()
		st.SearchBatch(m, params)
		perQuery = append(perQuery, us(time.Since(t0))/float64(batchSize))
	}
	b.rep.set("hermes.batch_us_per_query", "us", median(perQuery))

	i := 0
	deepIx := st.Shards[0].Index
	b.rep.set("ivf.allocs_per_search", "count", allocsPerRun(200, func() {
		deepIx.SearchWithStats(qs[i%len(qs)], params.K, params.DeepNProbe)
		i++
	}))
	b.rep.set("hermes.allocs_per_search", "count", allocsPerRun(200, func() {
		st.Search(qs[i%len(qs)], params)
		i++
	}))
	return median(ivfQ)
}

// nodeSuite measures one node through a one-node coordinator (DeepClusters
// 1) on the median-size shard: each query's sample and deep round trips,
// and the same two scans run in-process on the same index. The excess of a
// round trip is its RTT minus the matching ivf time minus the floor RTT;
// it returns the median excess in µs.
func (b *bench) nodeSuite(floorUs float64) (float64, error) {
	s := medianShard(b.e.store)
	co, err := distsearch.DialOpts([]string{b.e.cluster.Addrs()[s]}, distsearch.DialOptions{Timeout: 5 * time.Second, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		return 0, fmt.Errorf("dial node %d: %w", s, err)
	}
	defer co.Close()
	p := params
	p.DeepClusters = 1
	ix := b.e.store.Shards[s].Index
	var sampleRTT, deepRTT, excess []float64
	for _, q := range b.e.queries[:replayQueries] {
		res, err := co.Search(q, p)
		if err != nil {
			return 0, fmt.Errorf("node %d search: %w", s, err)
		}
		t0 := time.Now()
		ix.SearchWithStats(q, 1, p.SampleNProbe)
		t1 := time.Now()
		ix.SearchWithStats(q, p.K, p.DeepNProbe)
		t2 := time.Now()
		sampleRTT = append(sampleRTT, us(res.SampleLatency))
		deepRTT = append(deepRTT, us(res.DeepLatency))
		excess = append(excess, (us(res.SampleLatency-t1.Sub(t0))+us(res.DeepLatency-t2.Sub(t1)))/2-floorUs)
	}
	b.rep.set("distsearch.node.sample_rtt_us", "us", median(sampleRTT))
	b.rep.set("distsearch.node.deep_rtt_us", "us", median(deepRTT))
	b.rep.set("distsearch.node.excess_us", "us", median(excess))
	return median(excess), nil
}

func medianShard(st *hermes.Store) int {
	idx := make([]int, len(st.Shards))
	for i := range idx {
		idx[i] = i
	}
	sizes := st.Sizes()
	sort.Slice(idx, func(a, c int) bool { return sizes[idx[a]] < sizes[idx[c]] })
	return idx[len(idx)/2]
}

// coordSuite replays queries through the full coordinator, unloaded, then
// times its batch and mutation calls. Mutations add fresh IDs and remove
// them again. It returns the median coordinator self time in µs.
func (b *bench) coordSuite() (float64, error) {
	co := b.e.coord
	var sample, deep, other, wire []float64
	for _, q := range b.e.queries[:replayQueries] {
		t0 := time.Now()
		res, err := co.Search(q, params)
		wall := time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("coordinator search: %w", err)
		}
		sample = append(sample, ms(res.SampleLatency))
		deep = append(deep, ms(res.DeepLatency))
		other = append(other, us(wall-res.SampleLatency-res.DeepLatency))
		wire = append(wire, float64(res.Cost.WireBytes))
	}
	b.rep.set("distsearch.coord.sample_ms.p50", "ms", median(sample))
	b.rep.set("distsearch.coord.sample_ms.p99", "ms", quantile(sample, 0.99))
	b.rep.set("distsearch.coord.deep_ms.p50", "ms", median(deep))
	b.rep.set("distsearch.coord.deep_ms.p99", "ms", quantile(deep, 0.99))
	b.rep.set("distsearch.coord.other_us", "us", median(other))
	b.rep.set("distsearch.coord.wire_bytes_per_query", "bytes", mean(wire))

	var batch []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if _, err := co.SearchBatch(b.batchRows(i, maxBatch), params); err != nil {
			return 0, fmt.Errorf("coordinator batch: %w", err)
		}
		batch = append(batch, ms(time.Since(t0)))
	}
	b.rep.set("distsearch.coord.batch_ms", "ms", median(batch))

	const n = 50
	fresh := b.e.queries[replayQueries : replayQueries+n]
	base := int64(2 * b.e.spec.chunks)
	var add, remove, compact []float64
	for i, v := range fresh {
		t0 := time.Now()
		if _, err := co.Add(base+int64(i), v); err != nil {
			return 0, fmt.Errorf("coordinator add: %w", err)
		}
		add = append(add, ms(time.Since(t0)))
	}
	for i := range fresh {
		t0 := time.Now()
		_, ok, err := co.Remove(base + int64(i))
		if err != nil || !ok {
			return 0, fmt.Errorf("coordinator remove %d: ok=%v err=%v", base+int64(i), ok, err)
		}
		remove = append(remove, ms(time.Since(t0)))
	}
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if err := co.Compact(); err != nil {
			return 0, fmt.Errorf("coordinator compact: %w", err)
		}
		compact = append(compact, ms(time.Since(t0)))
	}
	b.rep.set("distsearch.add_ms", "ms", median(add))
	b.rep.set("distsearch.remove_ms", "ms", median(remove))
	b.rep.set("distsearch.compact_ms", "ms", median(compact))
	return median(other), nil
}
