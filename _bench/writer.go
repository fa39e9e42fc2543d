package main

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// addedRow is a document the writer ingested.
type addedRow struct {
	id int64
	v  []float32
}

// writeSample is one replace, timed from its due time.
type writeSample struct {
	due    time.Time
	ms     float64
	failed bool
}

// writer replaces documents: it removes existing corpus IDs and adds fresh
// ones, either back to back (replace) or as a Poisson process with periodic
// compaction beside the reads (start/stop).
type writer struct {
	add     func(id int64, v []float32) error
	remove  func(id int64) (bool, error)
	compact func() error
	tomb    *tombstones
	tr      *tracer
	layer   string // span name prefix: the layer written through

	docs   [][]float32 // the corpus rows, by ID
	perm   []int       // corpus IDs in removal order
	nextID int64       // next fresh ID to add
	nRem   int         // entries of perm removed

	// Owned by the writing goroutine until stop returns.
	added             []addedRow
	attempted, failed int

	rate    float64
	rng     *rand.Rand
	quit    chan struct{}
	done    chan struct{}
	mu      sync.Mutex
	samples []writeSample
}

// newWriter writes through the coordinator when the workload has one, else
// straight into the store.
func newWriter(e *env, tomb *tombstones, tr *tracer) *writer {
	w := &writer{
		tomb:   tomb,
		tr:     tr,
		docs:   rows(e.corpus.Vectors),
		perm:   rngFor(e.seed, 5).Perm(e.spec.chunks),
		nextID: int64(e.spec.chunks),
		rate:   e.spec.mixedWrites,
		rng:    rngFor(e.seed, 6),
	}
	if co := e.coord; co != nil {
		w.add = func(id int64, v []float32) error { _, err := co.Add(id, v); return err }
		w.remove = func(id int64) (bool, error) { _, ok, err := co.Remove(id); return ok, err }
		w.compact = co.Compact
		w.layer = "Coordinator"
	} else {
		st := e.store
		w.add = func(id int64, v []float32) error { _, err := st.Add(id, v); return err }
		w.remove = func(id int64) (bool, error) { _, ok := st.Remove(id); return ok, nil }
		w.compact = func() error { st.Compact(); return nil }
		w.layer = "Store"
	}
	return w
}

// replace is one write: Remove an existing corpus document, then Add its
// new version (the vector slightly perturbed) under a fresh ID, the way a
// datastore swaps a stale document for an edited one. The corpus keeps its
// size and distribution, so later rounds search the same kind of data. It
// reports whether either call failed; a Remove of an ID that no shard holds
// is a failure. Spans: write -> (<layer>.Remove, <layer>.Add).
func (w *writer) replace() bool {
	w.attempted++
	req, op, start := w.tr.id(), w.tr.id(), time.Now()
	id := int64(w.perm[w.nRem])
	w.nRem++
	ok, err := w.remove(id)
	removed := time.Now()
	failed := err != nil || !ok
	if !failed {
		w.tomb.acked(id, removed)
	}
	w.tr.record(0, op, req, w.layer+".Remove", start, removed)
	fresh, v := w.nextID, w.edit(w.docs[id])
	w.nextID++
	if err := w.add(fresh, v); err != nil {
		failed = true
	} else {
		w.added = append(w.added, addedRow{fresh, v})
	}
	end := time.Now()
	w.tr.record(0, op, req, w.layer+".Add", removed, end)
	w.tr.record(op, 0, req, "write", start, end)
	if failed {
		w.failed++
	}
	return failed
}

// edit returns a copy of doc with small Gaussian noise added.
func (w *writer) edit(doc []float32) []float32 {
	v := make([]float32, len(doc))
	for i, x := range doc {
		v[i] = x + float32(w.rng.NormFloat64()*editNoise)
	}
	return v
}

// editNoise is the standard deviation of an edit, small against the
// corpus's intra-topic spread (0.25).
const editNoise = 0.02

// start runs the Poisson writer until stop.
func (w *writer) start() {
	w.quit, w.done = make(chan struct{}), make(chan struct{})
	go w.loop()
}

func (w *writer) loop() {
	defer close(w.done)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	now := time.Now()
	next := now.Add(w.interval())
	nextCompact := now.Add(compactEvery)
	for {
		due, compact := next, false
		if nextCompact.Before(next) {
			due, compact = nextCompact, true
		}
		timer.Reset(time.Until(due))
		select {
		case <-w.quit:
			return
		case <-timer.C:
		}
		if compact {
			req, start := w.tr.id(), time.Now()
			if err := w.compact(); err != nil {
				w.attempted++
				w.failed++
			}
			w.tr.record(0, 0, req, w.layer+".Compact", start, time.Now())
			nextCompact = nextCompact.Add(compactEvery)
			continue
		}
		failed := w.replace()
		w.mu.Lock()
		w.samples = append(w.samples, writeSample{due: due, ms: ms(time.Since(due)), failed: failed})
		w.mu.Unlock()
		next = next.Add(w.interval())
	}
}

func (w *writer) interval() time.Duration {
	return time.Duration(w.rng.ExpFloat64() / w.rate * float64(time.Second))
}

// stop ends the Poisson writer and waits for it to exit.
func (w *writer) stop() {
	close(w.quit)
	<-w.done
}

// window returns the latencies (ms) of writes due in [from, to); a failed
// write misses every limit, so it reads as +Inf.
func (w *writer) window(from, to time.Time) []float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var lat []float64
	for _, s := range w.samples {
		if s.due.Before(from) || !s.due.Before(to) {
			continue
		}
		if s.failed {
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, s.ms)
	}
	return lat
}
