package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (never inside the program). Spans of one request share Req; a
// batch's own spans carry the batch's ID as Req, and a request's span for
// the batch it rode in links to that batch.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Link   uint64 `json:"link,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is the untraced mode.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

// id mints a span or request identifier; 0 when untraced.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span under a pre-minted id (0 mints one) and
// returns its id.
func (t *tracer) record(id, parent, req uint64, name string, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.id()
	}
	t.add(span{Name: name, ID: id, Parent: parent, Req: req,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// recordLinked stores a leaf span that points at another request's span.
func (t *tracer) recordLinked(parent, req, link uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(span{Name: name, ID: t.id(), Parent: parent, Req: req, Link: link,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// selfTimes returns, per span name, the self time of every span with that
// name: its duration minus the durations of its direct children.
func (t *tracer) selfTimes() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[uint64]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := make(map[string][]float64)
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], us(s.dur()-child[s.ID]))
	}
	return out
}

// durations returns the duration in µs of every span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, us(s.dur()))
		}
	}
	return out
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			_ = f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
