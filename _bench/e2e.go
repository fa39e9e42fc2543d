package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/vec"
)

// End-to-end runs (--trace 0). Each workload reports every end-to-end
// metric; all timings are untraced.

// Each end-to-end phase runs in many short rounds rather than one long
// stretch, spread over several set-ups of the workload. On the 2-vCPU
// reference host two things besides the program move the timings.
//
// The hypervisor takes the vCPUs away while other guests are busy. The run
// reads the host's steal counter around every round and phase, takes its
// metrics from the quiet rounds (see quietest), and takes the stolen time
// off the closed loops' rates and CPU times (see unstolenQPS and cpuPerOp).
// Read latency has no such remedy: point-tcp's p95 went from 0.8 ms to
// 2.2 ms at 15 % steal, and rounds quiet enough were too rare to take it
// from, so read tails are printed but are not metrics.
//
// The cost of a query depends on the corpus: its shards are of very
// different sizes (280 to 5000 chunks on batch-local), so which ones a
// query deep-searches differs from seed to seed; set-ups of different
// seeds, each under 1 % steal, cost from 590 to 840 us per query. So every
// set-up of a run generates its corpus from a seed of its own, derived from
// the run's seed, and the rounds are spread over all of them.

// roundsShare is the share of --seconds that all rounds take, warm rounds
// included.
const roundsShare = 0.95

// roundResult is one recorded round: what it measured and the share of the
// host's ticks stolen while it ran.
type roundResult struct {
	rep   *report
	steal float64
}

// endToEnd sets the workload up spec.setups times. Each set-up is timed for
// setup_s, has its answers checked, and serves one unrecorded warm round
// (the first round measured slow on every workload: caches, connections
// and the scheduler settle) and spec.rounds recorded ones. Every round,
// the warm ones too, also runs one step of the slo_qps search. Every
// round's operations count as attempted and failed.
func (b *bench) endToEnd(s spec, seed int64) error {
	var done []roundResult
	slo := newSLORun(s.slo)
	for k := 0; k < s.setups; k++ {
		rs, err := b.setUpAndServe(s, seed, k, slo)
		if err != nil {
			return err
		}
		done = append(done, rs...)
	}
	b.aggregate(done)
	if slo.bisect != nil {
		return fmt.Errorf("the slo_qps bisection did not finish")
	}
	b.rep.note("slo_qps: bisection %.0f/s, staircase steps that met the limit %v", slo.first, slo.passed)
	b.rep.set("slo_qps", "1/s", slo.result())
	return nil
}

// setUpAndServe replaces the previous set-up by set-up k, whose inputs derive
// from setupSeed(seed, k), and returns its recorded rounds.
func (b *bench) setUpAndServe(s spec, seed int64, k int, slo *sloRun) ([]roundResult, error) {
	if b.e != nil {
		b.e.close()
		b.e = nil
		liveHeapMB() // collect the previous set-up before timing the next
	}
	t0 := time.Now()
	e, err := setup(s, setupSeed(seed, k))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	b.rep.set("setup_s", "s", time.Since(t0).Seconds())
	b.e = e
	printMeta(e)
	if k == 0 {
		// Later set-ups would count what the runtime kept from the load on
		// earlier ones.
		b.rep.set("heap_mb", "MB", liveHeapMB())
	}
	round, err := b.round(slo)
	if err != nil {
		return nil, err
	}
	var done []roundResult
	for i := 0; i <= s.rounds; i++ {
		keep := b.rep
		b.rep = newReport()
		t0 := readHostTicks()
		round()
		r := roundResult{b.rep, t0.stealTo(readHostTicks())}
		keep.attempted += r.rep.attempted
		keep.failed += r.rep.failed
		b.rep = keep
		if i > 0 {
			done = append(done, r)
			b.rep.note("%s", r.summary(fmt.Sprintf("round %d.%d", k, i)))
		}
	}
	return done, nil
}

// summary is one line of a round's steal, metrics and latency percentiles.
func (r roundResult) summary(label string) string {
	line := fmt.Sprintf("%s steal %.2f %%", label, 100*r.steal)
	for _, n := range r.rep.names {
		line += fmt.Sprintf(" %s %.5g", n, r.rep.samples[n][0])
	}
	for _, p := range r.rep.latPrefixes {
		line += fmt.Sprintf(" %sp50_ms %.5g %sp95_ms %.5g", p, quantile(r.rep.lat[p], 0.5), p, quantile(r.rep.lat[p], 0.95))
	}
	return line
}

// aggregate reports the metrics of the quiet rounds among rs (see
// quietest): a scalar as the median of its rounds, latencies as
// percentiles of the rounds' samples pooled.
func (b *bench) aggregate(rs []roundResult) {
	quiet := quietest(rs)
	var steal float64
	for _, r := range rs {
		steal += r.steal / float64(len(rs))
	}
	b.rep.note("%d rounds, mean steal %.2f %%; metrics from the %d quietest", len(rs), 100*steal, len(quiet))
	lat := make(map[string][]float64)
	var prefixes []string
	for _, r := range quiet {
		for _, n := range r.rep.names {
			for _, v := range r.rep.samples[n] {
				b.rep.set(n, r.rep.units[n], v)
			}
		}
		for _, p := range r.rep.latPrefixes {
			if _, ok := lat[p]; !ok {
				prefixes = append(prefixes, p)
			}
			lat[p] = append(lat[p], r.rep.lat[p]...)
		}
	}
	for _, p := range prefixes {
		b.latencies(p, lat[p])
	}
}

// maxSteal is the largest share of the host's CPU ticks that may be stolen
// during a round for it to count as quiet.
const maxSteal = 0.01

// quietest returns the rounds the metrics come from: every round with at
// most maxSteal stolen or, when fewer than half of them are that quiet, the
// half with the least stolen.
func quietest(rs []roundResult) []roundResult {
	s := append([]roundResult(nil), rs...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].steal < s[j].steal })
	n := (len(s) + 1) / 2
	for n < len(s) && s[n].steal <= maxSteal {
		n++
	}
	return s[:n]
}

// maxWrites is how many replaces one round issues; the rounds on one set-up
// thus never replace more than a sixth of its corpus. A Remove visits the
// nodes in turn until one holds the ID, so its cost is spread over 1-10
// round trips and the percentiles need many samples.
const maxWrites = 500

// roundLen is the length of one round.
func (b *bench) roundLen() time.Duration {
	s := b.e.spec
	return b.frac(roundsShare / float64(s.setups*(s.rounds+1)))
}

// share is the given share of d.
func share(d time.Duration, f float64) time.Duration {
	return time.Duration(f * float64(d))
}

// round checks the current set-up's answers and returns the workload's
// round.
func (b *bench) round(slo *sloRun) (func(), error) {
	n := b.roundLen()
	w := newWriter(b.e, newTombstones(), nil)
	switch b.e.spec.name {
	case "point-tcp":
		// A two-worker closed loop of Coordinator.Search for qps and CPU
		// per query, one client issuing queries back to back for p50/p95,
		// closed-loop writes, and open-loop arrivals for slo_qps. (At a fixed open-loop rate of a quarter
		// of capacity the host's wake-up delays dominated the latency: p50
		// spread 0.3-0.6 across runs.)
		if err := b.checkTCP(); err != nil {
			return nil, err
		}
		read := b.pointRead(nil)
		return func() {
			c := b.closed("closed", b.workers, share(n, 0.18), read)
			b.rep.set("qps", "1/s", c.unstolenQPS(1))
			b.rep.set("cpu_us_per_query", "us", us(c.cpuPerOp(1)))
			one := b.closed("one-client", 1, share(n, 0.35), read)
			b.rep.keepLatencies("", durs(one.lat, ms))
			settle()
			b.closedWrites(w, share(n, 0.07))
			b.sloStep(slo, read, share(n, 0.4))
			settle()
		}, nil
	case "batch-local":
		// One closed-loop caller of Store.SearchBatch (which already runs
		// GOMAXPROCS workers) for qps and per-batch p50/p95, closed-loop
		// writes, and open-loop Store.Search arrivals for slo_qps.
		b.checkLocal()
		batch, read := b.localBatch(nil), b.storeRead(nil)
		return func() {
			c := b.closed("closed", 1, share(n, 0.53), batch)
			b.rep.set("qps", "1/s", c.unstolenQPS(batchSize))
			b.rep.set("cpu_us_per_query", "us", us(c.cpuPerOp(batchSize)))
			b.rep.keepLatencies("", durs(c.lat, ms))
			settle()
			b.closedWrites(w, share(n, 0.07))
			b.sloStep(slo, read, share(n, 0.4))
			settle()
		}, nil
	}
	return nil, fmt.Errorf("no end-to-end run for %q", b.e.spec.name)
}

// settle separates phases so one phase's garbage is not collected on
// the next one's clock.
func settle() { liveHeapMB() }

// checkTCP fails the run unless Coordinator.Search over TCP, and
// Coordinator.SearchBatch in batches of maxBatch, return the same neighbours
// as in-process Store.Search, and reports recall_at_5 of the TCP answers
// against the exhaustive search.
func (b *bench) checkTCP() error {
	tcp := make([][]vec.Neighbor, len(b.e.check))
	local := make([][]vec.Neighbor, len(b.e.check))
	for i, q := range b.e.check {
		res, err := b.e.coord.Search(q, params)
		if err != nil {
			return fmt.Errorf("check query %d: %w", i, err)
		}
		tcp[i] = res.Neighbors
		local[i], _ = b.e.store.Search(q, params)
	}
	var batched [][]vec.Neighbor
	for i := 0; i < len(b.e.check); i += maxBatch {
		res, err := b.e.coord.SearchBatch(b.e.check[i:min(i+maxBatch, len(b.e.check))], params)
		if err != nil {
			return fmt.Errorf("check batch %d: %w", i/maxBatch, err)
		}
		batched = append(batched, res.Results...)
	}
	b.chk.compareModes("Coordinator.Search vs Store.Search", tcp, local)
	b.chk.compareModes("Coordinator.SearchBatch vs Store.Search", batched, local)
	b.recall(tcp, b.exactOriginal())
	return nil
}

// checkLocal fails the run unless Store.SearchBatch returns the same
// neighbours as Store.Search, and reports recall_at_5.
func (b *bench) checkLocal() {
	res := b.e.store.SearchBatch(vec.MatrixFromRows(b.e.check), params)
	batch := make([][]vec.Neighbor, len(res))
	single := make([][]vec.Neighbor, len(res))
	for i, q := range b.e.check {
		batch[i] = res[i].Neighbors
		single[i], _ = b.e.store.Search(q, params)
	}
	b.chk.compareModes("Store.SearchBatch vs Store.Search", batch, single)
	b.recall(batch, b.exactOriginal())
}

func (b *bench) exactOriginal() [][]vec.Neighbor {
	ids := make([]int64, b.e.corpus.Vectors.Len())
	for i := range ids {
		ids[i] = int64(i)
	}
	return exactTopK(ids, rows(b.e.corpus.Vectors), b.e.check, params.K)
}

// recall reports recall_at_5 and fails the run below the workload's floor.
func (b *bench) recall(got, want [][]vec.Neighbor) {
	r := recallAt(params.K, got, want)
	b.rep.set("recall_at_5", "ratio", r)
	b.checkFloor("recall_at_5", r)
}

func (b *bench) checkFloor(name string, r float64) {
	if r < b.e.spec.recallFloor {
		b.chk.failf("%s %.4f below the %s floor %.2f", name, r, b.e.spec.name, b.e.spec.recallFloor)
	}
}

// liveRecall is recall_at_5 of Coordinator.Search over the live set a
// writer left behind: the original rows it did not remove plus every row it
// added. The reads also go through the tombstone check.
func (b *bench) liveRecall(w *writer, tomb *tombstones) (float64, error) {
	var ids []int64
	var vecs [][]float32
	for i, v := range rows(b.e.corpus.Vectors) {
		if !tomb.isRemoved(int64(i)) {
			ids = append(ids, int64(i))
			vecs = append(vecs, v)
		}
	}
	for _, a := range w.added {
		ids = append(ids, a.id)
		vecs = append(vecs, a.v)
	}
	want := exactTopK(ids, vecs, b.e.check, params.K)
	got := make([][]vec.Neighbor, len(b.e.check))
	for i, q := range b.e.check {
		start := time.Now()
		res, err := b.e.coord.Search(q, params)
		if err != nil {
			return 0, fmt.Errorf("live check query %d: %w", i, err)
		}
		tomb.observe(start, res.Neighbors)
		got[i] = res.Neighbors
	}
	return recallAt(params.K, got, want), nil
}

// closedWrites runs one round of replaces, maxWrites of them paced evenly
// over dur: each starts at its slot, or when the one before it ends if that
// is later, and none starts after dur. Back to back, batch-local's
// in-process replaces took 20 ms a round, too short a window of a host
// whose speed changes from one millisecond to the next. It reports their
// latency and then compacts, so later rounds scan no tombstones.
func (b *bench) closedWrites(w *writer, dur time.Duration) {
	attempted, failed := w.attempted, w.failed
	var lat []float64
	start := time.Now()
	for i := 0; i < maxWrites && time.Since(start) < dur; i++ {
		sleepUntil(start.Add(dur * time.Duration(i) / maxWrites))
		t0 := time.Now()
		w.replace()
		lat = append(lat, ms(time.Since(t0)))
	}
	if err := w.compact(); err != nil {
		w.attempted++
		w.failed++
	}
	b.rep.phase("writes", w.attempted-attempted, w.failed-failed)
	if w.failed > failed {
		b.chk.failf("%d writes failed", w.failed-failed)
	}
	b.rep.keepLatencies("write_", lat)
}

// setupSeed is the seed of set-up k of a run with the given seed; set-up 0
// and the traced run use the run's seed itself.
func setupSeed(seed int64, k int) int64 {
	return seed + int64(k)*1_000_003
}

// rngFor derives a generator for one purpose from the run's seed.
func rngFor(seed, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + purpose))
}
