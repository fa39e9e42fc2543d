package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/vec"
)

// opFunc is one request of a load phase: i numbers it, due is when it was
// due to be sent.
type opFunc func(i int, due time.Time) error

// bench is one invocation: the environment, its budget and what it reports.
type bench struct {
	e       *env
	seconds time.Duration
	rep     *report
	chk     *checks
	workers int // closed-loop workers: at most nproc
	rngSeq  int64
}

// rng returns a fresh generator for the next phase's arrival schedule; the
// sequence depends only on the seed and the phase order.
func (b *bench) rng() *rand.Rand {
	b.rngSeq++
	return rand.New(rand.NewSource(b.e.seed*1_000_003 + b.rngSeq))
}

func (b *bench) frac(f float64) time.Duration {
	return time.Duration(f * float64(b.seconds))
}

// openCap bounds a phase's outstanding requests: past rate*limit*4 the step
// has already failed, and queryPool/2 keeps in-flight query rows distinct.
func openCap(rate float64, limit time.Duration) int {
	c := int(rate*limit.Seconds()*4) + 64
	if c > queryPool/2 {
		c = queryPool / 2
	}
	return c
}

// pointRead is point-tcp's read: one Coordinator.Search. Spans: op ->
// (gen.lag, Coordinator.Search -> (coord.sample, coord.deep)).
func (b *bench) pointRead(tr *tracer) opFunc {
	return func(i int, due time.Time) error {
		req, op, call := tr.id(), tr.id(), tr.id()
		start := time.Now()
		res, err := b.e.coord.Search(b.e.queries[i%queryPool], params)
		end := time.Now()
		if tr != nil {
			if err == nil {
				tr.record(0, call, req, "coord.sample", start, start.Add(res.SampleLatency))
				tr.record(0, call, req, "coord.deep", end.Add(-res.DeepLatency), end)
			}
			tr.record(call, op, req, "Coordinator.Search", start, end)
			tr.record(0, op, req, "gen.lag", due, start)
			tr.record(op, 0, req, "op", due, time.Now())
		}
		return err
	}
}

// storeRead is one in-process Store.Search. Spans: op -> (gen.lag,
// Store.Search).
func (b *bench) storeRead(tr *tracer) opFunc {
	return func(i int, due time.Time) error {
		req, op := tr.id(), tr.id()
		start := time.Now()
		b.e.store.Search(b.e.queries[i%queryPool], params)
		end := time.Now()
		if tr != nil {
			tr.record(0, op, req, "Store.Search", start, end)
			tr.record(0, op, req, "gen.lag", due, start)
			tr.record(op, 0, req, "op", due, time.Now())
		}
		return nil
	}
}

// batchRows returns the n-query batch number i of the load queries.
func (b *bench) batchRows(i, n int) [][]float32 {
	per := queryPool / n
	j := (i % per) * n
	return b.e.queries[j : j+n]
}

// localBatch is batch-local's read: one Store.SearchBatch of batchSize
// queries. Spans: op -> Store.SearchBatch.
func (b *bench) localBatch(tr *tracer) opFunc {
	per := queryPool / batchSize
	mats := make([]*vec.Matrix, per)
	for i := range mats {
		mats[i] = vec.MatrixFromRows(b.batchRows(i, batchSize))
	}
	return func(i int, due time.Time) error {
		req, op := tr.id(), tr.id()
		start := time.Now()
		b.e.store.SearchBatch(mats[i%per], params)
		if tr != nil {
			end := time.Now()
			tr.record(0, op, req, "Store.SearchBatch", start, end)
			tr.record(op, 0, req, "op", due, time.Now())
		}
		return nil
	}
}

func (b *bench) readerOp(br *batchedReader) opFunc {
	return func(i int, due time.Time) error { return br.read(b.e.queries[i%queryPool], due) }
}

// closed runs and reports a closed-loop phase.
func (b *bench) closed(name string, workers int, dur time.Duration, op opFunc) *closedRun {
	r := runClosed(workers, dur, op)
	b.rep.phase(name, r.done+r.failed, r.failed)
	return r
}

// open runs and reports an open-loop phase.
func (b *bench) open(name string, rate float64, dur time.Duration, limit time.Duration, op opFunc) *openRun {
	r := runOpen(b.rng(), rate, dur, openCap(rate, limit), op)
	b.rep.phase(fmt.Sprintf("%s@%.0f/s", name, rate), r.attempted, r.failures())
	if r.aborted {
		b.rep.note("%s@%.0f/s: stopped offering at %d in flight", name, rate, openCap(rate, limit))
	}
	return r
}

// sloRun is the search for slo_qps on a ladder, one step per round, so that
// its steps are spread over the whole run like the other phases. It bisects
// the ladder once and then walks it one rung at a time from the rung found:
// up after a step that meets the limit, down after one that missed it twice
// (see search). This staircase keeps the steps near the limit and corrects
// a bisection that a burst of interference misled. slo_qps is the median
// rate of the staircase's steps that met the limit, or the bisection's
// result when none did.
type sloRun struct {
	rates  []float64
	limit  time.Duration
	bisect *search // nil once the bisection is over
	first  float64 // the bisection's result
	rung   int     // the staircase's next rung
	missed bool    // the next rung missed once
	passed []float64
}

func newSLORun(l ladder) *sloRun {
	return &sloRun{rates: l.rates(), limit: l.limit, bisect: l.newSearch()}
}

func (s *sloRun) rate() float64 {
	if s.bisect != nil {
		return s.bisect.rate()
	}
	return s.rates[s.rung]
}

func (s *sloRun) record(meets bool) {
	if s.bisect != nil {
		if s.bisect.record(meets) {
			s.first, s.rung = s.bisect.best(), max(s.bisect.lo, 0)
			s.bisect = nil
		}
		return
	}
	switch {
	case meets:
		s.passed = append(s.passed, s.rates[s.rung])
		s.rung, s.missed = min(s.rung+1, len(s.rates)-1), false
	case !s.missed:
		s.missed = true
	default:
		s.rung, s.missed = max(s.rung-1, 0), false
	}
}

func (s *sloRun) result() float64 {
	if len(s.passed) == 0 {
		return s.first
	}
	return median(s.passed)
}

// sloStep runs the next ladder step with op for dur.
func (b *bench) sloStep(s *sloRun, op opFunc, dur time.Duration) {
	settle()
	t0 := readHostTicks()
	r := b.open("slo", s.rate(), dur, s.limit, op)
	meets := r.meets(s.limit)
	b.rep.note("slo step %.0f/s: p99 %.3f ms, backlog %d, steal %.1f %%, meets %v",
		r.rate, quantile(r.latMs(), 0.99), r.backlogEnd, 100*t0.stealTo(readHostTicks()), meets)
	s.record(meets)
}

// latencies reports the median of a sample in ms and, for writes, the 95th
// percentile, and prints the other percentiles with the sample count. Read
// tails are printed only: they tracked the hypervisor's steal on the
// reference host, not the program (see the top of e2e.go).
func (b *bench) latencies(prefix string, msVals []float64) {
	b.rep.set(prefix+"p50_ms", "ms", quantile(msVals, 0.5))
	if prefix == "write_" {
		b.rep.set(prefix+"p95_ms", "ms", quantile(msVals, 0.95))
	}
	b.rep.note("%sp50 %.3f ms, p95 %.3f ms, p99 %.3f ms over %d samples", prefix,
		quantile(msVals, 0.5), quantile(msVals, 0.95), quantile(msVals, 0.99), len(msVals))
}
