package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/flatindex"
	"repro/internal/vec"
)

// checks collects correctness failures; any one fails the run.
type checks struct {
	mu       sync.Mutex
	failures []string
}

func (c *checks) failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

func (c *checks) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.failures) == 0
}

// exactTopK is the exhaustive flatindex answer for every query over the
// given live rows (ids[i] is the id of row i).
func exactTopK(ids []int64, vecs [][]float32, queries [][]float32, k int) [][]vec.Neighbor {
	ix := flatindex.New(len(queries[0]))
	for i, v := range vecs {
		ix.Add(ids[i], v)
	}
	out := make([][]vec.Neighbor, len(queries))
	for i, q := range queries {
		out[i] = ix.Search(q, k)
	}
	return out
}

// recallAt is mean |got ∩ want| / k over the queries.
func recallAt(k int, got, want [][]vec.Neighbor) float64 {
	var hit, total int
	for i := range want {
		truth := make(map[int64]bool, len(want[i]))
		for _, n := range want[i] {
			truth[n.ID] = true
		}
		for j, n := range got[i] {
			if j < k && truth[n.ID] {
				hit++
			}
		}
		total += k
	}
	return float64(hit) / float64(total)
}

// sameIDs reports whether two result lists hold the same IDs in the same
// order.
func sameIDs(a, b []vec.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
	}
	return true
}

// compareModes fails the run unless every query gets identical neighbours
// from two execution modes.
func (c *checks) compareModes(what string, a, b [][]vec.Neighbor) {
	bad := 0
	for i := range a {
		if !sameIDs(a[i], b[i]) {
			bad++
		}
	}
	if bad > 0 {
		c.failf("%s: %d of %d queries returned different neighbours", what, bad, len(a))
	}
}

// tombstones remembers when each Remove was acknowledged, so a read that
// starts after the acknowledgement and still returns the ID is caught.
type tombstones struct {
	mu      sync.RWMutex
	removed map[int64]time.Time
	stale   int
}

func newTombstones() *tombstones { return &tombstones{removed: make(map[int64]time.Time)} }

func (t *tombstones) acked(id int64, at time.Time) {
	t.mu.Lock()
	t.removed[id] = at
	t.mu.Unlock()
}

// observe checks one read's neighbours; start is when the read was issued.
func (t *tombstones) observe(start time.Time, ns []vec.Neighbor) {
	t.mu.RLock()
	stale := 0
	for _, n := range ns {
		if at, ok := t.removed[n.ID]; ok && at.Before(start) {
			stale++
		}
	}
	t.mu.RUnlock()
	if stale > 0 {
		t.mu.Lock()
		t.stale += stale
		t.mu.Unlock()
	}
}

func (t *tombstones) staleReads() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.stale
}

func (t *tombstones) isRemoved(id int64) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.removed[id]
	return ok
}
