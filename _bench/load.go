package main

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// poisson returns the due offsets of a Poisson arrival process at rate per
// second over dur, drawn from rng: independent users, so arrivals never
// wait for earlier replies.
func poisson(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// openRun is one open-loop phase. Every request is timed from its due time,
// so a stalled system (or a late generator) is charged for the wait it
// imposes on the requests behind it.
type openRun struct {
	rate      float64
	lat       []time.Duration // due -> done of each launched request
	failed    []bool
	lag       []time.Duration // due -> launch
	attempted int
	// backlogEnd is the number of requests still in flight when the last
	// one was launched.
	backlogEnd int
	// aborted is set when the in-flight count passed the phase's cap and
	// the remaining arrivals were dropped (the step cannot meet its limit).
	aborted bool
	elapsed time.Duration
}

// runOpen offers Poisson arrivals at rate for dur, launching op(i, due) for
// each on its own goroutine at its due time, and waits for all of them.
// Launching stops once maxInflight requests are outstanding.
func runOpen(rng *rand.Rand, rate float64, dur time.Duration, maxInflight int, op func(i int, due time.Time) error) *openRun {
	due := poisson(rng, rate, dur)
	r := &openRun{
		rate:   rate,
		lat:    make([]time.Duration, len(due)),
		failed: make([]bool, len(due)),
		lag:    make([]time.Duration, len(due)),
	}
	var wg sync.WaitGroup
	var inflight atomic.Int64
	start := time.Now()
	for i, off := range due {
		at := start.Add(off)
		sleepUntil(at)
		if inflight.Load() >= int64(maxInflight) {
			r.aborted = true
			break
		}
		r.lag[i] = time.Since(at)
		r.attempted++
		inflight.Add(1)
		wg.Add(1)
		go func(i int, at time.Time) {
			defer wg.Done()
			err := op(i, at)
			r.lat[i] = time.Since(at)
			r.failed[i] = err != nil
			inflight.Add(-1)
		}(i, at)
	}
	r.backlogEnd = int(inflight.Load())
	wg.Wait()
	r.elapsed = time.Since(start)
	r.lat, r.failed, r.lag = r.lat[:r.attempted], r.failed[:r.attempted], r.lag[:r.attempted]
	return r
}

// sleepUntil blocks the calling thread until t with a nanosleep system
// call. time.Sleep rounds sub-millisecond waits up to the runtime's
// millisecond poll timeout when every P is idle, which would make the
// generator itself run up to a millisecond late.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// failures counts failed requests.
func (r *openRun) failures() int {
	n := 0
	for _, f := range r.failed {
		if f {
			n++
		}
	}
	return n
}

// latMs returns per-request latency in ms; a failed request counts as
// missing every limit, so it reads as +Inf.
func (r *openRun) latMs() []float64 {
	out := durs(r.lat, ms)
	for i, f := range r.failed {
		if f {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// meets reports whether the phase held a p99 limit with no failure and no
// growing backlog: by Little's law, more than rate*limit requests in flight
// cannot all finish within the limit.
func (r *openRun) meets(limit time.Duration) bool {
	if r.aborted || r.attempted == 0 || r.failures() > 0 {
		return false
	}
	if float64(r.backlogEnd) > r.rate*limit.Seconds()+1 {
		return false
	}
	return quantile(r.latMs(), 0.99) <= ms(limit)
}

// closedRun is one closed-loop phase: each worker sends its next request
// only after the previous reply.
type closedRun struct {
	lat     []time.Duration
	done    int
	failed  int
	elapsed time.Duration
	cpu     time.Duration
	// steal is the share of the host's CPU ticks stolen during the phase,
	// and stolen the vCPU time they add up to.
	steal  float64
	stolen time.Duration
}

// runClosed runs op on workers goroutines until dur has passed; i numbers
// requests across workers and due is the send time (a closed loop sends
// each request as soon as its worker is free).
func runClosed(workers int, dur time.Duration, op func(i int, due time.Time) error) *closedRun {
	var next atomic.Int64
	lats := make([][]time.Duration, workers)
	fails := make([]int, workers)
	var wg sync.WaitGroup
	cpu0, ticks0 := cpuTime(), readHostTicks()
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				if err := op(i, t0); err != nil {
					fails[w]++
					continue
				}
				lats[w] = append(lats[w], time.Since(t0))
			}
		}(w)
	}
	wg.Wait()
	r := &closedRun{elapsed: time.Since(start), cpu: cpuTime() - cpu0}
	ticks := readHostTicks()
	r.steal, r.stolen = ticks0.stealTo(ticks), ticks0.stolenTo(ticks)
	for w := range lats {
		r.lat = append(r.lat, lats[w]...)
		r.failed += fails[w]
	}
	r.done = len(r.lat)
	return r
}

func (r *closedRun) qps(perOp int) float64 {
	return float64(r.done*perOp) / r.elapsed.Seconds()
}

// unstolenQPS is the rate per second the hypervisor left the vCPUs to the
// guest: on the shared reference host a closed loop that keeps both vCPUs
// busy loses the stolen share of its time outright.
func (r *closedRun) unstolenQPS(perOp int) float64 {
	return r.qps(perOp) / (1 - r.steal)
}

// cpuPerOp is the process's CPU time per operation, less the time stolen
// meanwhile. The process is the only load of its guest, and on the reference
// host its CPU time includes time stolen from it: at 15 % steal the CPU per
// point-tcp query read 890 us against 750 us on a quiet host, and 750 once
// the stolen time was taken off.
func (r *closedRun) cpuPerOp(perOp int) time.Duration {
	return max(r.cpu-r.stolen, 0) / time.Duration(r.done*perOp)
}

// ladder is a fixed, geometric set of offered rates; the SLO capacity is
// the highest rate on it whose phase meets limit.
type ladder struct {
	lo, hi, ratio float64
	limit         time.Duration
}

func (l ladder) rates() []float64 {
	var out []float64
	for r := l.lo; r <= l.hi*1.0001; r *= l.ratio {
		out = append(out, math.Round(r))
	}
	return out
}

// search is one bisection of a ladder for its highest passing rate,
// assuming that a rate that misses makes every higher one miss too; it
// runs one step at a time. A step that misses counts as missed only when a
// second run of it misses too: interference from other guests of the host
// can make a step miss but hardly ever makes one meet its limit.
type search struct {
	rates  []float64
	lo, hi int  // rates[lo] met the limit, rates[hi] missed it twice
	missed bool // the next step's rate missed once
}

func (l ladder) newSearch() *search {
	r := l.rates()
	return &search{rates: r, lo: -1, hi: len(r)}
}

// rate is the rate of the next step.
func (s *search) rate() float64 { return s.rates[(s.lo+s.hi)/2] }

// record takes the outcome of the next step and reports whether the search
// is over.
func (s *search) record(meets bool) bool {
	mid := (s.lo + s.hi) / 2
	switch {
	case meets:
		s.lo, s.missed = mid, false
	case !s.missed:
		s.missed = true
	default:
		s.hi, s.missed = mid, false
	}
	return s.hi-s.lo <= 1
}

// best is the highest rate that met the limit; 0 when even the lowest
// missed.
func (s *search) best() float64 {
	if s.lo < 0 {
		return 0
	}
	return s.rates[s.lo]
}
