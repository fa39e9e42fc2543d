package distsearch

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/evlog"
	"repro/internal/ivf"
	"repro/internal/telemetry"
	"repro/internal/vec"
)

// Node serves one shard's IVF index over TCP.
type Node struct {
	shardID int
	index   *ivf.Index
	ln      net.Listener
	logger  *log.Logger
	met     *nodeMetrics
	ev      *evlog.Log

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// idxMu guards the shard index: searches share a read lock, OpAdd and
	// OpRemove take the write lock (ivf.Index permits concurrent reads but
	// not read/write races).
	idxMu sync.RWMutex

	// Served-request counters (atomic).
	sampleServed, deepServed, mutationsServed int64
}

// NewNode wraps a trained shard index. The logger may be nil to discard
// diagnostics.
func NewNode(shardID int, index *ivf.Index, logger *log.Logger) (*Node, error) {
	if index == nil || !index.Trained() {
		return nil, fmt.Errorf("distsearch: node %d requires a trained index", shardID)
	}
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	return &Node{
		shardID: shardID,
		index:   index,
		logger:  logger,
		met:     newNodeMetrics(telemetry.Default, shardID, index.QuantizerName()),
		conns:   make(map[net.Conn]struct{}),
	}, nil
}

// SetTelemetry points the node's metrics at reg instead of the process
// default registry. Call before Listen; a nil reg disables node telemetry.
func (n *Node) SetTelemetry(reg *telemetry.Registry) {
	n.met = newNodeMetrics(reg, n.shardID, n.index.QuantizerName())
}

// SetEvents attaches a structured event log recording connection lifecycle
// edges (accept, close, decode/encode failures). Call before Listen; a nil
// log (the default) disables event recording at zero cost.
func (n *Node) SetEvents(ev *evlog.Log) { n.ev = ev }

// Listen binds the node to addr ("127.0.0.1:0" for an ephemeral port) and
// starts the accept loop in a background goroutine.
func (n *Node) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("distsearch: node %d listen: %w", n.shardID, err)
	}
	n.ln = ln
	n.wg.Add(1)
	go n.acceptLoop()
	return nil
}

// Addr returns the bound address; Listen must have succeeded.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// ShardID returns the node's shard identifier.
func (n *Node) ShardID() int { return n.shardID }

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			if !n.isClosed() {
				n.logger.Printf("node %d accept: %v", n.shardID, err)
			}
			return
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			_ = conn.Close()
			return
		}
		n.conns[conn] = struct{}{}
		n.mu.Unlock()
		n.ev.Info("conn.accept", evlog.Int("shard", int64(n.shardID)), evlog.Str("remote", conn.RemoteAddr().String()))
		n.wg.Add(1)
		go n.serveConn(conn)
	}
}

func (n *Node) serveConn(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		n.mu.Lock()
		delete(n.conns, conn)
		n.mu.Unlock()
		_ = conn.Close()
		n.ev.Info("conn.close", evlog.Int("shard", int64(n.shardID)), evlog.Str("remote", conn.RemoteAddr().String()))
	}()
	var s frameStream
	s.reset(conn)
	for {
		// Wait for the next request's first byte: the decode span starts
		// when bytes reach the node, not when the frame is complete.
		if _, err := s.r.Peek(1); err != nil {
			if !errors.Is(err, io.EOF) && !n.isClosed() {
				n.connError("conn.decode_error", err)
			}
			return
		}
		arrival := now()
		id, frame, _, err := s.read()
		var req Request
		if err == nil {
			err = decodeRequest(frame, &req)
		}
		start := now()
		var resp *Response
		switch {
		case err == nil:
			resp = n.handle(&req, arrival, start)
		case errors.Is(err, errUnknownOp):
			resp = &Response{Err: fmt.Sprintf("node %d: unknown op %d", n.shardID, req.Op)}
		default:
			if !n.isClosed() {
				n.connError("conn.decode_error", err)
			}
			return
		}
		served := now().Sub(start)
		resp.ServerNanos = served.Nanoseconds()
		n.met.observe(req.Op, served, req.TraceID)
		if err := n.reply(&s, id, req.Op, resp, arrival); err != nil {
			if !n.isClosed() {
				n.connError("conn.encode_error", err)
			}
			return
		}
		if req.Op == OpShutdown {
			go n.Close()
			return
		}
	}
}

// reply encodes resp as one frame and writes it. A traced reply's encode
// span times the real encode of everything before it and is appended as
// the frame's last record. A reply that cannot be encoded (an oversized
// frame, a gob failure) is answered with an error frame instead.
func (n *Node) reply(s *frameStream, id uint64, op Op, resp *Response, arrival time.Time) error {
	traced := resp.Err == "" && len(resp.Spans) > 0
	extra := 0
	var encStart time.Time
	if traced {
		extra = 1
		encStart = now()
	}
	buf, err := encodeReply(s.buf, id, op, resp, extra)
	if err == nil && traced {
		buf = appendSpan(buf, WireSpan{
			Name:        "encode",
			Node:        n.shardID,
			OffsetNanos: encStart.Sub(arrival).Nanoseconds(),
			DurNanos:    now().Sub(encStart).Nanoseconds(),
		})
	}
	if err == nil {
		err = endFrame(buf)
	}
	if err != nil {
		buf = beginFrame(buf, id, opError)
		buf = appendString(buf, fmt.Sprintf("node %d: encode reply: %v", n.shardID, err))
		if err := endFrame(buf); err != nil {
			return err
		}
	}
	s.buf = buf
	_, err = s.conn.Write(buf)
	return err
}

// connError logs a failure that ends the connection under the event name.
func (n *Node) connError(event string, err error) {
	n.logger.Printf("node %d %s: %v", n.shardID, event, err)
	n.ev.Warn(event, evlog.Int("shard", int64(n.shardID)), evlog.Err(err))
}

func (n *Node) handle(req *Request, arrival, decodeDone time.Time) *Response {
	switch req.Op {
	case OpAdd, OpRemove, OpCompact:
		n.idxMu.Lock()
		defer n.idxMu.Unlock()
	default:
		n.idxMu.RLock()
		defer n.idxMu.RUnlock()
	}
	switch req.Op {
	case OpInfo:
		if req.Version != ProtocolVersion {
			return &Response{Err: fmt.Sprintf("node %d: coordinator speaks frame protocol v%d, node v%d", n.shardID, req.Version, ProtocolVersion)}
		}
		return &Response{ShardID: n.shardID, Size: n.index.Len(), Dim: n.index.Dim(), Version: ProtocolVersion, Centroid: n.meanCentroid()}
	case OpSample:
		if len(req.Query) != n.index.Dim() {
			return &Response{Err: fmt.Sprintf("node %d: query dim %d != %d", n.shardID, len(req.Query), n.index.Dim())}
		}
		atomic.AddInt64(&n.sampleServed, 1)
		return n.searchResp(req, 1, req.NProbe, arrival, decodeDone)
	case OpDeep:
		if len(req.Query) != n.index.Dim() {
			return &Response{Err: fmt.Sprintf("node %d: query dim %d != %d", n.shardID, len(req.Query), n.index.Dim())}
		}
		if req.K <= 0 {
			return &Response{Err: fmt.Sprintf("node %d: k must be positive", n.shardID)}
		}
		atomic.AddInt64(&n.deepServed, 1)
		return n.searchResp(req, req.K, req.NProbe, arrival, decodeDone)
	case OpSampleBatch:
		atomic.AddInt64(&n.sampleServed, int64(len(req.Queries)))
		return n.handleBatch(req, 1, req.NProbe, arrival, decodeDone)
	case OpDeepBatch:
		if req.K <= 0 {
			return &Response{Err: fmt.Sprintf("node %d: k must be positive", n.shardID)}
		}
		atomic.AddInt64(&n.deepServed, int64(len(req.Queries)))
		return n.handleBatch(req, req.K, req.NProbe, arrival, decodeDone)
	case OpAdd:
		if len(req.Query) != n.index.Dim() {
			return &Response{Err: fmt.Sprintf("node %d: add dim %d != %d", n.shardID, len(req.Query), n.index.Dim())}
		}
		if err := n.index.Add(req.ID, req.Query); err != nil {
			return &Response{Err: err.Error()}
		}
		atomic.AddInt64(&n.mutationsServed, 1)
		return &Response{ShardID: n.shardID, OK: true}
	case OpRemove:
		atomic.AddInt64(&n.mutationsServed, 1)
		return &Response{ShardID: n.shardID, OK: n.index.Remove(req.ID)}
	case OpStats:
		return &Response{
			ShardID:         n.shardID,
			Size:            n.index.Len(),
			SampleServed:    atomic.LoadInt64(&n.sampleServed),
			DeepServed:      atomic.LoadInt64(&n.deepServed),
			MutationsServed: atomic.LoadInt64(&n.mutationsServed),
			Tombstones:      n.index.Tombstones(),
			Telemetry:       n.met.reg.Snapshot(),
		}
	case OpMetricsSnap:
		return &Response{ShardID: n.shardID, Families: n.met.reg.Export()}
	case OpCompact:
		n.index.Compact()
		return &Response{ShardID: n.shardID, OK: true}
	case OpShutdown:
		return &Response{ShardID: n.shardID}
	default:
		return &Response{Err: fmt.Sprintf("node %d: unknown op %d", n.shardID, req.Op)}
	}
}

// meanCentroid averages the shard's coarse centroids — the routing key the
// coordinator uses for ingest.
func (n *Node) meanCentroid() []float32 {
	out := make([]float32, n.index.Dim())
	for c := 0; c < n.index.NList(); c++ {
		vec.Add(out, n.index.Centroid(c))
	}
	vec.Scale(out, 1/float32(n.index.NList()))
	return out
}

// searchResp serves one single-query search. Untraced requests take the
// clock-free path; a traced request (TraceID != 0) runs the phased search
// and ships the per-phase spans in the response. Either way the response
// carries the query's cost-ledger entry, whose scan time (traced only) is
// the measured list-scan phase.
func (n *Node) searchResp(req *Request, k, nProbe int, arrival, decodeDone time.Time) *Response {
	if req.TraceID == 0 {
		res, st := n.scan(req.Query, k, nProbe)
		return &Response{
			ShardID:   n.shardID,
			Neighbors: res,
			Scanned:   int64(st.VectorsScanned),
			Costs:     []telemetry.QueryCost{scanCost(st, 0)},
		}
	}
	scanStart := now()
	res, st, ph := n.scanPhased(req.Query, k, nProbe)
	return &Response{
		ShardID:   n.shardID,
		Neighbors: res,
		Scanned:   int64(st.VectorsScanned),
		Costs:     []telemetry.QueryCost{scanCost(st, ph.Scan)},
		Spans:     n.tracedSpans(arrival, decodeDone, scanStart, ph),
	}
}

// scanCost is the ledger entry of one query's scan on this node.
func scanCost(st ivf.SearchStats, scanNanos int64) telemetry.QueryCost {
	return telemetry.QueryCost{
		Cells:     int64(st.CellsProbed),
		Codes:     int64(st.VectorsScanned),
		ScanNanos: scanNanos,
	}
}

func (n *Node) handleBatch(req *Request, k, nProbe int, arrival, decodeDone time.Time) *Response {
	batch := make([][]vec.Neighbor, len(req.Queries))
	costs := make([]telemetry.QueryCost, len(req.Queries))
	traced := req.TraceID != 0
	var scanned int64
	var agg ivf.PhaseNanos
	scanStart := decodeDone
	if traced {
		scanStart = now()
	}
	for i, q := range req.Queries {
		if len(q) != n.index.Dim() {
			return &Response{Err: fmt.Sprintf("node %d: batch query %d dim %d != %d", n.shardID, i, len(q), n.index.Dim())}
		}
		if traced {
			res, st, ph := n.scanPhased(q, k, nProbe)
			batch[i] = res
			costs[i] = scanCost(st, ph.Scan)
			scanned += int64(st.VectorsScanned)
			agg.Add(ph)
		} else {
			res, st := n.scan(q, k, nProbe)
			batch[i] = res
			costs[i] = scanCost(st, 0)
			scanned += int64(st.VectorsScanned)
		}
	}
	resp := &Response{ShardID: n.shardID, Batch: batch, Scanned: scanned, Costs: costs}
	if traced {
		// A batch interleaves the three phases query by query; the shipped
		// spans consolidate them into one select/scan/merge sequence whose
		// durations are the per-phase sums — busy time is exact, the
		// offsets within the batch are a presentation choice.
		resp.Spans = n.tracedSpans(arrival, decodeDone, scanStart, agg)
	}
	return resp
}

// tracedSpans lays the node-side phases out as wire spans with offsets
// relative to the request's wire arrival: decode, then (from scanStart,
// which also covers any index-lock wait) probe_select, list_scan, and
// topk_merge back to back. The encode span is appended to the reply frame
// by reply, after the rest of the frame is encoded.
func (n *Node) tracedSpans(arrival, decodeDone, scanStart time.Time, ph ivf.PhaseNanos) []WireSpan {
	sel := scanStart.Sub(arrival).Nanoseconds()
	scan := sel + ph.Select
	merge := scan + ph.Scan
	return []WireSpan{
		{Name: "decode", Node: n.shardID, OffsetNanos: 0, DurNanos: decodeDone.Sub(arrival).Nanoseconds()},
		{Name: "probe_select", Node: n.shardID, OffsetNanos: sel, DurNanos: ph.Select},
		{Name: "list_scan", Node: n.shardID, OffsetNanos: scan, DurNanos: ph.Scan},
		{Name: "topk_merge", Node: n.shardID, OffsetNanos: merge, DurNanos: ph.Merge},
	}
}

// scan runs one index search, timing it against the shard's per-quantizer
// scan histogram (protocol decode/encode excluded). It returns the
// neighbors and the search stats (cells probed, vectors scanned).
func (n *Node) scan(q []float32, k, nProbe int) ([]vec.Neighbor, ivf.SearchStats) {
	stop := n.met.scanSeconds.Timer()
	res, st := n.index.SearchWithStats(q, k, nProbe)
	stop()
	return res, st
}

// scanPhased is scan with the per-phase breakdown, for traced requests.
func (n *Node) scanPhased(q []float32, k, nProbe int) ([]vec.Neighbor, ivf.SearchStats, ivf.PhaseNanos) {
	stop := n.met.scanSeconds.Timer()
	res, st, ph := n.index.SearchPhased(q, k, nProbe)
	stop()
	return res, st, ph
}

func (n *Node) isClosed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closed
}

// Close stops the listener, closes live connections, and waits for handler
// goroutines to drain. Safe to call multiple times.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	conns := make([]net.Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	var err error
	if n.ln != nil {
		err = n.ln.Close()
	}
	for _, c := range conns {
		// Force-closing a live connection races benignly with the peer
		// hanging up first; that error carries no signal.
		_ = c.Close()
	}
	n.wg.Wait()
	return err
}
