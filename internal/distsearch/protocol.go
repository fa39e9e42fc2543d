// Package distsearch is the working distributed implementation of Hermes'
// serving architecture (Figure 9): one shard node per disaggregated index
// cluster and a coordinator that scatters the sample phase to every node,
// ranks nodes by their sampled document, and gathers a deep search from the
// top-ranked subset.
//
// The wire protocol is length-prefixed binary frames over TCP (frame.go):
// each request frame carries a request ID that its reply echoes, and each
// connection runs one exchange at a time. Whereas internal/multinode models
// a large cluster analytically, this package actually runs the protocol —
// the tests and examples/distributed spin up real nodes on localhost.
package distsearch

import (
	"repro/internal/telemetry"
	"repro/internal/vec"
)

// Op selects the request type.
type Op uint8

const (
	// OpInfo asks a node for its shard metadata.
	OpInfo Op = iota + 1
	// OpSample performs the low-nProbe single-document sample search.
	OpSample
	// OpDeep performs the high-nProbe top-k deep search.
	OpDeep
	// OpShutdown asks the node to stop serving after replying.
	OpShutdown
	// OpSampleBatch runs the sample search for many queries in one round
	// trip; OpDeepBatch likewise for the deep search. Batch variants are
	// what the coordinator uses for throughput-oriented serving — one
	// request per node per phase instead of one per query.
	OpSampleBatch
	OpDeepBatch
	// OpAdd ingests a vector into the node's shard; OpRemove tombstones
	// one. Together they make the distributed datastore mutable without
	// an offline rebuild (the RAG freshness premise).
	OpAdd
	OpRemove
	// OpStats returns the node's served-request counters (live load
	// observability, the per-node view of Fig. 13's access imbalance).
	// OpCompact reclaims tombstoned space after removals.
	OpStats
	OpCompact
	// OpMetricsSnap returns the node's structured metric export
	// (Response.Families) for cluster-level federation: the coordinator
	// merges every node's families into the /metrics/cluster view. A node
	// that does not serve it answers with an "unknown op" error, which the
	// coordinator treats as "federation absent", not a failure.
	OpMetricsSnap
)

// Request is the in-memory form of a request frame. Only the fields of its
// op travel (see the layouts in frame.go).
type Request struct {
	Op     Op
	Query  []float32
	K      int
	NProbe int
	// Queries carries the batch for OpSampleBatch/OpDeepBatch.
	Queries [][]float32
	// ID identifies the document for OpAdd/OpRemove (OpAdd's vector
	// travels in Query).
	ID int64
	// TraceID carries the coordinator-minted request-scoped trace ID; 0
	// means untraced.
	TraceID uint64
	// Version is the coordinator's ProtocolVersion (OpInfo only).
	Version int
}

// Response is the in-memory form of a reply frame. Err is non-empty when
// the node rejected or failed the request (an opError frame carrying only
// the text). Only the fields of the request's op travel.
type Response struct {
	Err string
	// Info fields.
	ShardID int
	Size    int
	Dim     int
	// Version is the node's ProtocolVersion (OpInfo only).
	Version int
	// Search results (best first). For OpSample, at most one entry.
	Neighbors []vec.Neighbor
	// Batch holds per-query results for the batch ops, index-aligned with
	// Request.Queries.
	Batch [][]vec.Neighbor
	// Centroid is the node's mean coarse centroid (OpInfo), used by the
	// coordinator to route ingested documents to the most similar shard.
	Centroid []float32
	// OK reports OpRemove success (the id was present and is now gone).
	OK bool
	// Stats fields (OpStats).
	SampleServed, DeepServed, MutationsServed int64
	Tombstones                                int
	// ServerNanos is the node-side handling time of this request in
	// nanoseconds (deserialization and wire excluded); the coordinator
	// uses it to split round-trip time into compute vs wire.
	ServerNanos int64
	// Telemetry is the node's full metric snapshot, keyed as
	// telemetry.Registry.Snapshot renders it (OpStats only).
	Telemetry map[string]float64
	// Scanned is the number of vectors the node's index scanned serving
	// this request (summed across a batch).
	Scanned int64
	// Spans carries the node's per-phase timing for a traced request
	// (Request.TraceID != 0): decode, probe_select, list_scan, topk_merge,
	// encode. Offsets are relative to the node-side request start, never
	// wall times, so coordinator/node clock skew is irrelevant — the
	// coordinator anchors them at its own send time when stitching them
	// into the query trace. Empty for untraced requests and from nodes
	// that do not trace.
	Spans []WireSpan
	// Families is the node's structured, mergeable metric export
	// (OpMetricsSnap only): full bucket layouts and counts rather than the
	// flattened strings of Telemetry above, so the coordinator can merge
	// histograms bucket-wise across nodes.
	Families []telemetry.FamilySnapshot
	// Costs is the per-query resource-attribution ledger for this request:
	// index-aligned with Request.Queries for the batch ops, a single entry
	// for OpSample/OpDeep. Each entry accounts the cells this query probed,
	// the codes scanned for it, and — for traced requests — its measured
	// scan time. WireBytes is left zero by nodes (only the coordinator can
	// see the wire) and filled in coordinator-side from the frame sizes.
	Costs []telemetry.QueryCost
}

// WireSpan is one node-side phase shipped inside a Response.
type WireSpan struct {
	Name string
	// Node is the shard ID that recorded the span.
	Node int
	// OffsetNanos is the span start relative to the node-side request
	// start (first request byte observed / decode start).
	OffsetNanos int64
	// DurNanos is the span duration.
	DurNanos int64
}
