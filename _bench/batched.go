package main

import (
	"sync"
	"time"

	"repro/internal/batcher"
	"repro/internal/distsearch"
	"repro/internal/vec"
)

// batchInterval is when a flushed batch's Process closure ran.
type batchInterval struct {
	id         uint64
	start, end time.Time
}

// batchedReader sends reads through a FIFO batcher (no Predict). Its
// Process closure stamps each batch, so every read's queue wait (Search
// entry to the start of its batch) is measured from outside.
type batchedReader struct {
	b    *batcher.Batcher
	tr   *tracer
	tomb *tombstones

	mu      sync.Mutex
	batchOf map[*float32]batchInterval // query row -> batch it rode in
	waits   []float64                  // ms
	procs   []float64                  // ms
	sizes   []float64
}

// newBatchedReader puts a batcher in front of co.SearchBatch.
func newBatchedReader(co *distsearch.Coordinator, tr *tracer, tomb *tombstones) (*batchedReader, error) {
	br := &batchedReader{tr: tr, tomb: tomb, batchOf: make(map[*float32]batchInterval)}
	process := func(qs [][]float32) ([][]vec.Neighbor, error) {
		bid := br.tr.id()
		start := time.Now()
		res, err := co.SearchBatch(qs, params)
		end := time.Now()
		if err != nil {
			return nil, err
		}
		if br.tr != nil {
			call := br.tr.id()
			br.tr.record(0, call, bid, "coord.sample", start, start.Add(res.SampleLatency))
			br.tr.record(0, call, bid, "coord.deep", end.Add(-res.DeepLatency), end)
			br.tr.record(call, bid, bid, "Coordinator.SearchBatch", start, end)
			br.tr.record(bid, 0, bid, "batcher.process", start, end)
		}
		iv := batchInterval{id: bid, start: start, end: end}
		br.mu.Lock()
		for _, q := range qs {
			br.batchOf[&q[0]] = iv
		}
		br.procs = append(br.procs, ms(end.Sub(start)))
		br.sizes = append(br.sizes, float64(len(qs)))
		br.mu.Unlock()
		return res.Results, nil
	}
	b, err := batcher.New(batcher.Config{MaxBatch: maxBatch, MaxWait: maxWait, Process: process})
	if err != nil {
		return nil, err
	}
	br.b = b
	return br, nil
}

// read is one open-loop user: it enters the batcher and waits for its
// batch. Spans: op -> (gen.lag, batcher.Search -> (batcher.queue,
// batcher.batch)); batcher.batch links to the batch's batcher.process span.
func (br *batchedReader) read(q []float32, due time.Time) error {
	enter := time.Now()
	res, err := br.b.Search(q)
	exit := time.Now()
	if err == nil {
		br.tomb.observe(enter, res)
	}
	br.mu.Lock()
	iv, ok := br.batchOf[&q[0]]
	delete(br.batchOf, &q[0])
	if ok {
		br.waits = append(br.waits, ms(iv.start.Sub(enter)))
	}
	br.mu.Unlock()
	if tr := br.tr; tr != nil {
		req, op, search := tr.id(), tr.id(), tr.id()
		if ok {
			tr.record(0, search, req, "batcher.queue", enter, iv.start)
			tr.recordLinked(search, req, iv.id, "batcher.batch", iv.start, iv.end)
		}
		tr.record(search, op, req, "batcher.Search", enter, exit)
		tr.record(0, op, req, "gen.lag", due, enter)
		tr.record(op, 0, req, "op", due, time.Now())
	}
	return err
}

// take returns and resets the recorded queue waits, batch durations and
// batch sizes.
func (br *batchedReader) take() (waits, procs, sizes []float64) {
	br.mu.Lock()
	defer br.mu.Unlock()
	waits, procs, sizes = br.waits, br.procs, br.sizes
	br.waits, br.procs, br.sizes = nil, nil, nil
	return waits, procs, sizes
}

func (br *batchedReader) close() { br.b.Close() }
