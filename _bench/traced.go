package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// The traced run (--trace 1): the workload's closed and open phases run
// untraced and with spans recorded around every layer call; each layer the
// spans cannot reach from outside is replayed one layer down (layers.go);
// and the mixed suite serves reads through the batcher beside writes. It
// reports only per-layer metrics. The timed phases take 0.91 of --seconds
// and the count-bounded layer replays a few seconds more.

// loadShape is a workload's closed and open read phases, untraced and
// traced.
type loadShape struct {
	workers   int
	perClosed int       // queries per closed-loop operation
	plain     [2]opFunc // closed, open
	traced    [2]opFunc
}

func (b *bench) shape(tr *tracer) (loadShape, error) {
	switch b.e.spec.name {
	case "point-tcp":
		return loadShape{workers: b.workers, perClosed: 1,
			plain:  [2]opFunc{b.pointRead(nil), b.pointRead(nil)},
			traced: [2]opFunc{b.pointRead(tr), b.pointRead(tr)}}, nil
	case "batch-local":
		return loadShape{workers: 1, perClosed: batchSize,
			plain:  [2]opFunc{b.localBatch(nil), b.storeRead(nil)},
			traced: [2]opFunc{b.localBatch(tr), b.storeRead(tr)}}, nil
	}
	return loadShape{}, fmt.Errorf("no traced run for %q", b.e.spec.name)
}

// tracedRun runs the load untraced and traced, alternating twice so warm-up
// and drift fall on both sides, then the layer replays and the mixed suite,
// and writes the spans out at the end.
func (b *bench) tracedRun(spanDir string) error {
	tr := newTracer()
	sh, err := b.shape(tr)
	if err != nil {
		return err
	}
	plain, traced := sh.plain, sh.traced
	b.closed("warm-closed", sh.workers, b.frac(0.025), plain[0])
	b.open("warm-open", b.e.spec.openRate, b.frac(0.025), b.e.spec.slo.limit, plain[1])
	settle()

	var uQPS, tQPS, uP50, tP50 []float64
	for range 2 {
		// Untraced pass: the runtime and generator metrics come from here,
		// so tracing cannot inflate them.
		rt0, cpu0 := readRuntime(), cpuTime()
		uc := b.closed("untraced-closed", sh.workers, b.frac(0.07), plain[0])
		uo := b.open("untraced-open", b.e.spec.openRate, b.frac(0.12), b.e.spec.slo.limit, plain[1])
		rt1, cpu := readRuntime(), cpuTime()-cpu0
		queries := float64(uc.done*sh.perClosed + uo.attempted)
		b.rep.set("runtime.allocs_per_query", "count", float64(rt1.allocObjects-rt0.allocObjects)/queries)
		b.rep.set("runtime.bytes_per_query", "bytes", float64(rt1.allocBytes-rt0.allocBytes)/queries)
		b.rep.set("runtime.gc_cpu_frac", "ratio", (rt1.gcCPU-rt0.gcCPU)/cpu.Seconds())
		b.rep.set("gen.lag_p99_ms", "ms", quantile(durs(uo.lag, ms), 0.99))
		b.rep.set("gen.backlog_end", "count", float64(uo.backlogEnd))
		settle()
		tc := b.closed("traced-closed", sh.workers, b.frac(0.07), traced[0])
		to := b.open("traced-open", b.e.spec.openRate, b.frac(0.12), b.e.spec.slo.limit, traced[1])
		settle()
		if uc.failed+tc.failed+uo.failures()+to.failures() > 0 {
			b.chk.failf("reads failed in the traced run")
		}
		uQPS, tQPS = append(uQPS, uc.qps(1)), append(tQPS, tc.qps(1))
		uP50, tP50 = append(uP50, quantile(uo.latMs(), 0.5)), append(tP50, quantile(to.latMs(), 0.5))
	}
	b.rep.set("trace.overhead_frac", "ratio", mean(tP50)/mean(uP50)-1)
	b.rep.set("trace.qps_ratio", "ratio", mean(tQPS)/mean(uQPS))
	self := tr.selfTimes()
	b.rep.set("trace.unattributed_us", "us", median(self["op"]))
	b.rep.set("trace.unattributed_frac", "ratio", sum(self["op"])/sum(tr.durations("op")))

	if err := b.layers(tr); err != nil {
		return err
	}
	b.rep.note("%d spans recorded", tr.count())
	all := tr.selfTimes()
	for _, name := range sortedKeys(all) {
		v := all[name]
		b.rep.note("span %-24s n=%-6d self p50 %9.1f us  p99 %9.1f us", name, len(v), median(v), quantile(v, 0.99))
	}
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", b.e.spec.name, b.e.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	b.rep.note("spans written to %s", path)
	return nil
}

// mixedSuite is mixed read/write serving on the cluster: open-loop reads
// through a FIFO batcher (no Predict) whose flushes go to
// Coordinator.SearchBatch, beside a Poisson writer of replaces and a Compact
// every compactEvery, which take the nodes' write locks. Spans: op ->
// batcher.Search -> (batcher.queue, batcher.batch), batch ->
// Coordinator.SearchBatch, write -> (Remove, Add). No read may return an ID
// after its Remove was acknowledged, and recall over the live set left at
// the end must hold the workload's floor.
func (b *bench) mixedSuite(tr *tracer) error {
	tomb := newTombstones()
	br, err := newBatchedReader(b.e.coord, tr, tomb)
	if err != nil {
		return err
	}
	w := newWriter(b.e, tomb, tr)
	w.start()
	from := time.Now()
	o := b.open("mixed-reads", b.e.spec.mixedReads, b.frac(0.1), 100*time.Millisecond, b.readerOp(br))
	to := time.Now()
	w.stop()
	br.close()
	b.rep.phase("mixed-writes", w.attempted, w.failed)
	if o.failures() > 0 || w.failed > 0 {
		b.chk.failf("mixed suite: %d reads and %d writes failed", o.failures(), w.failed)
	}
	reads := o.latMs()
	b.rep.set("mixed.read_p50_ms", "ms", quantile(reads, 0.5))
	b.rep.set("mixed.read_p95_ms", "ms", quantile(reads, 0.95))
	b.rep.set("mixed.read_p99_ms", "ms", quantile(reads, 0.99))
	writes := w.window(from, to)
	b.rep.set("mixed.write_p50_ms", "ms", quantile(writes, 0.5))
	b.rep.set("mixed.write_p95_ms", "ms", quantile(writes, 0.95))
	b.rep.set("mixed.write_p99_ms", "ms", quantile(writes, 0.99))
	waits, procs, sizes := br.take()
	b.rep.set("batcher.queue_wait_ms.p50", "ms", median(waits))
	b.rep.set("batcher.queue_wait_ms.p99", "ms", quantile(waits, 0.99))
	b.rep.set("batcher.batch_size", "count", mean(sizes))
	b.rep.set("batcher.flushes", "1/s", float64(len(sizes))/o.elapsed.Seconds())
	b.rep.set("batcher.process_ms", "ms", median(procs))
	b.rep.set("batcher.queue_share", "ratio", median(waits)/quantile(reads, 0.5))
	r, err := b.liveRecall(w, tomb)
	if err != nil {
		return err
	}
	b.rep.set("mixed.live_recall_at_5", "ratio", r)
	b.checkFloor("mixed.live_recall_at_5", r)
	if n := tomb.staleReads(); n > 0 {
		b.chk.failf("mixed suite: %d neighbours returned after their Remove was acknowledged", n)
	}
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
