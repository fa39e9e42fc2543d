package telemetry

import (
	"fmt"
	"io"
	"time"
)

// QueryCost is one query's resource-attribution ledger entry: the concrete
// work the serving plane did on its behalf, in units that survive
// aggregation. Cells and Codes count the IVF cells probed and the live codes
// scanned for the query across every shard and phase. ScanNanos carries the
// query's measured scan wall time when the execution was traced, and stays
// zero on the untraced path, which never reads a clock. WireBytes is the
// query's share of the coordinator<->node wire traffic that served it.
type QueryCost struct {
	Cells     int64 `json:"cells"`
	Codes     int64 `json:"codes"`
	ScanNanos int64 `json:"scan_nanos"`
	WireBytes int64 `json:"wire_bytes"`
}

// Add accumulates o into c (per-shard and per-phase contributions fold into
// one query-level entry).
func (c *QueryCost) Add(o QueryCost) {
	c.Cells += o.Cells
	c.Codes += o.Codes
	c.ScanNanos += o.ScanNanos
	c.WireBytes += o.WireBytes
}

// IsZero reports whether no cost was recorded (the ledger was not populated,
// e.g. a record predating cost accounting).
func (c QueryCost) IsZero() bool { return c == QueryCost{} }

// String renders the ledger entry compactly for tables and record listings.
func (c QueryCost) String() string {
	return fmt.Sprintf("cells=%d codes=%d scan=%v wire=%dB",
		c.Cells, c.Codes, time.Duration(c.ScanNanos), c.WireBytes)
}

// AttributeTotal splits total across len(weights) parts in proportion to the
// weights, guaranteeing the parts sum to total exactly (no rounding loss):
// each part is the difference of consecutive rounded-down cumulative targets,
// so remainders land deterministically on the earliest heavy parts. When all
// weights are zero the split is even. Used to attribute batch-level measured
// totals — scan nanoseconds, wire bytes — back to member queries.
func AttributeTotal(total int64, weights []int64) []int64 {
	n := len(weights)
	if n == 0 {
		return nil
	}
	parts := make([]int64, n)
	var totalW int64
	for _, w := range weights {
		totalW += w
	}
	if totalW == 0 {
		for i := range parts {
			// Even split with the same exact-sum construction.
			parts[i] = total*int64(i+1)/int64(n) - total*int64(i)/int64(n)
		}
		return parts
	}
	var acc, given int64
	for i, w := range weights {
		acc += w
		target := total * acc / totalW
		parts[i] = target - given
		given = target
	}
	return parts
}

// WriteBatchAttribution renders a batch's per-query cost breakdown as an
// aligned table: one row per member query plus a totals row, in the order
// given. The totals row is the exact column sums, which by the ledger's
// construction equal the batch's measured totals. Shared by the
// /debug/queries?batch= view and hermes-loadtest's -trace report.
func WriteBatchAttribution(w io.Writer, members []QueryRecord) {
	fmt.Fprintf(w, "  %-18s %8s %12s %10s %10s\n", "query", "cells", "codes", "scan", "wire")
	var total QueryCost
	for _, qr := range members {
		c := qr.Cost
		total.Add(c)
		fmt.Fprintf(w, "  %016x   %8d %12d %10v %9dB\n",
			qr.TraceID, c.Cells, c.Codes, time.Duration(c.ScanNanos), c.WireBytes)
	}
	fmt.Fprintf(w, "  %-18s %8d %12d %10v %9dB\n",
		"total", total.Cells, total.Codes, time.Duration(total.ScanNanos), total.WireBytes)
}
