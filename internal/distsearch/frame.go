package distsearch

// The frame codec of the node transport. Every request and reply travels as
// one length-prefixed frame:
//
//	length    u32 LE   bytes after this field: 8 + 1 + len(body)
//	requestID u64 LE   chosen by the coordinator, echoed by the reply
//	op        u8       the request's Op; a failed reply carries opError
//	body      ...      the op's layout below
//
// Bodies are hand-written: signed integers are zigzag varints, unsigned ones
// (trace IDs, counts) uvarints, float32 values 4 bytes little-endian, bools
// one byte (0 or 1), strings and slices a uvarint count then the elements.
// Every varint must be minimally encoded and a body must be consumed
// exactly, so a decoded frame re-encodes to the same bytes.
//
// Request bodies:
//
//	OpInfo                     Version
//	OpSample, OpDeep           TraceID K NProbe Query
//	OpSampleBatch, OpDeepBatch TraceID Grouped K NProbe Queries
//	OpAdd                      ID Query
//	OpRemove                   ID
//	OpShutdown, OpCompact,
//	OpStats, OpMetricsSnap     (empty)
//
// Reply bodies start with ShardID ServerNanos, then:
//
//	OpInfo                     Version Size Dim Centroid
//	OpSample, OpDeep           Scanned Neighbors Costs Spans
//	OpSampleBatch, OpDeepBatch Scanned GroupedExec Batch Costs Spans
//	OpAdd, OpRemove, OpCompact OK
//	OpShutdown                 (nothing more)
//	OpStats                    gob(statsBody)
//	OpMetricsSnap              gob(metricsBody)
//
// An opError reply's body is the error text alone. Spans come last, so a
// node can time the encode of everything before them and append the encode
// span as the frame's final record.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"math"
	"net"

	"repro/internal/telemetry"
	"repro/internal/vec"
)

// ProtocolVersion is the frame protocol this package speaks. The OpInfo
// handshake carries it both ways and any mismatch fails Dial. Versions up
// to 6 were the gob stream, which has no decoder here.
const ProtocolVersion = 7

const (
	// frameHeaderLen is the length field plus the request ID.
	frameHeaderLen = 12
	// minFrameLen is the smallest valid length field: request ID and op.
	minFrameLen = 9
	// maxFrameLen caps the length field. A larger value is rejected
	// before any buffer is sized from it.
	maxFrameLen = 16 << 20
	// opError marks a reply whose request failed; its body is the error
	// text.
	opError Op = 0
)

var (
	errFrameLen  = errors.New("distsearch: frame length out of range")
	errFrameBody = errors.New("distsearch: malformed frame body")
	errUnknownOp = errors.New("distsearch: unknown op")
	errReplyOp   = errors.New("distsearch: reply op does not match the request")
)

// statsBody is the OpStats reply payload after the common reply prefix.
// It and metricsBody are the only gob-encoded bodies: control ops whose
// metric maps and histogram families do not earn a hand-written layout.
//
//hermes:wire
type statsBody struct {
	Size                                      int
	SampleServed, DeepServed, MutationsServed int64
	Tombstones                                int
	Telemetry                                 map[string]float64
}

// metricsBody is the OpMetricsSnap reply payload after the common prefix.
//
//hermes:wire
type metricsBody struct {
	Families []telemetry.FamilySnapshot
}

// frameStream is one end of a framed connection: the socket, a buffered
// reader at bufio's default size, and one frame buffer, grown on demand,
// that holds the frame being written or the frame just read.
type frameStream struct {
	conn net.Conn
	r    *bufio.Reader
	buf  []byte
}

// reset points the stream at conn, keeping its buffers.
func (s *frameStream) reset(conn net.Conn) {
	s.conn = conn
	if s.r == nil {
		s.r = bufio.NewReader(conn)
		return
	}
	s.r.Reset(conn)
}

// read reads the next frame into s.buf and returns its request ID and its
// op byte plus body (aliasing s.buf until the next read or encode). started
// reports whether any byte of the frame was consumed: after an error with
// started false the stream still sits at a frame boundary.
func (s *frameStream) read() (id uint64, frame []byte, started bool, err error) {
	hdr, err := s.r.Peek(frameHeaderLen)
	if err != nil {
		if len(hdr) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, len(hdr) > 0, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	id = binary.LittleEndian.Uint64(hdr[4:])
	if n < minFrameLen || n > maxFrameLen {
		return id, nil, true, errFrameLen
	}
	// Discard cannot fail: the bytes were just peeked.
	_, _ = s.r.Discard(frameHeaderLen)
	size := int(n) - 8
	if cap(s.buf) < size {
		s.buf = make([]byte, size)
	}
	frame = s.buf[:size]
	if _, err := io.ReadFull(s.r, frame); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return id, nil, true, err
	}
	return id, frame, true, nil
}

// beginFrame resets buf to a frame header with a zero length, id, and op.
//
//hermes:hotpath
func beginFrame(buf []byte, id uint64, op Op) []byte {
	buf = append(buf[:0], 0, 0, 0, 0)
	buf = binary.LittleEndian.AppendUint64(buf, id)
	return append(buf, byte(op))
}

// endFrame writes the length field of a frame built from beginFrame.
//
//hermes:hotpath
func endFrame(frame []byte) error {
	n := len(frame) - 4
	if n > maxFrameLen {
		return errFrameLen
	}
	binary.LittleEndian.PutUint32(frame, uint32(n))
	return nil
}

// encodeRequest encodes req as one frame into buf (reused from index 0)
// and returns it; endFrame finishes it.
//
//hermes:hotpath
func encodeRequest(buf []byte, id uint64, req *Request) []byte {
	buf = beginFrame(buf, id, req.Op)
	switch req.Op {
	case OpInfo:
		buf = binary.AppendVarint(buf, int64(req.Version))
	case OpSample, OpDeep:
		buf = binary.AppendUvarint(buf, req.TraceID)
		buf = binary.AppendVarint(buf, int64(req.K))
		buf = binary.AppendVarint(buf, int64(req.NProbe))
		buf = appendFloats(buf, req.Query)
	case OpSampleBatch, OpDeepBatch:
		buf = binary.AppendUvarint(buf, req.TraceID)
		buf = appendBool(buf, req.Grouped)
		buf = binary.AppendVarint(buf, int64(req.K))
		buf = binary.AppendVarint(buf, int64(req.NProbe))
		buf = binary.AppendUvarint(buf, uint64(len(req.Queries)))
		for _, q := range req.Queries {
			buf = appendFloats(buf, q)
		}
	case OpAdd:
		buf = binary.AppendVarint(buf, req.ID)
		buf = appendFloats(buf, req.Query)
	case OpRemove:
		buf = binary.AppendVarint(buf, req.ID)
	}
	return buf
}

// decodeRequest decodes a request frame's op and body into req. Slices in
// req are freshly allocated; nothing aliases frame. An op this node does
// not know yields errUnknownOp with req.Op set, so the caller can answer
// it with an error reply.
//
//hermes:hotpath
func decodeRequest(frame []byte, req *Request) error {
	if len(frame) == 0 {
		return errFrameBody
	}
	req.Op = Op(frame[0])
	r := wireReader{b: frame[1:]}
	switch req.Op {
	case OpInfo:
		req.Version = r.int()
	case OpSample, OpDeep:
		req.TraceID = r.uvarint()
		req.K = r.int()
		req.NProbe = r.int()
		req.Query = r.floats()
	case OpSampleBatch, OpDeepBatch:
		req.TraceID = r.uvarint()
		req.Grouped = r.bool()
		req.K = r.int()
		req.NProbe = r.int()
		if n := r.count(1); n > 0 {
			req.Queries = make([][]float32, n)
			for i := range req.Queries {
				req.Queries[i] = r.floats()
			}
		}
	case OpAdd:
		req.ID = r.varint()
		req.Query = r.floats()
	case OpRemove:
		req.ID = r.varint()
	case OpShutdown, OpCompact, OpStats, OpMetricsSnap:
	default:
		return errUnknownOp
	}
	return r.done()
}

// encodeReply encodes resp, the reply to a request of op, as one frame into
// buf. A reply with Err set becomes an opError frame. extraSpans is the
// number of span records the caller appends after the frame (appendSpan)
// before endFrame; they are counted in the span list's length prefix.
//
//hermes:hotpath
func encodeReply(buf []byte, id uint64, op Op, resp *Response, extraSpans int) ([]byte, error) {
	if resp.Err != "" {
		buf = beginFrame(buf, id, opError)
		return appendString(buf, resp.Err), nil
	}
	buf = beginFrame(buf, id, op)
	buf = binary.AppendVarint(buf, int64(resp.ShardID))
	buf = binary.AppendVarint(buf, resp.ServerNanos)
	switch op {
	case OpInfo:
		buf = binary.AppendVarint(buf, int64(resp.Version))
		buf = binary.AppendVarint(buf, int64(resp.Size))
		buf = binary.AppendVarint(buf, int64(resp.Dim))
		buf = appendFloats(buf, resp.Centroid)
	case OpSample, OpDeep:
		buf = binary.AppendVarint(buf, resp.Scanned)
		buf = appendNeighbors(buf, resp.Neighbors)
		buf = appendCosts(buf, resp.Costs)
		buf = appendSpans(buf, resp.Spans, extraSpans)
	case OpSampleBatch, OpDeepBatch:
		buf = binary.AppendVarint(buf, resp.Scanned)
		buf = appendBool(buf, resp.GroupedExec)
		buf = binary.AppendUvarint(buf, uint64(len(resp.Batch)))
		for _, res := range resp.Batch {
			buf = appendNeighbors(buf, res)
		}
		buf = appendCosts(buf, resp.Costs)
		buf = appendSpans(buf, resp.Spans, extraSpans)
	case OpAdd, OpRemove, OpCompact:
		buf = appendBool(buf, resp.OK)
	case OpStats, OpMetricsSnap:
		return appendGobBody(buf, op, resp)
	}
	return buf, nil
}

// decodeReply decodes a reply frame to a request of op into resp. Slices
// and strings in resp are freshly allocated; nothing aliases frame.
//
//hermes:hotpath
func decodeReply(frame []byte, op Op, resp *Response) error {
	if len(frame) == 0 {
		return errFrameBody
	}
	r := wireReader{b: frame[1:]}
	got := Op(frame[0])
	if got == opError {
		resp.Err = r.string()
		if resp.Err == "" && r.err == nil {
			// An empty error text would re-encode as a success frame.
			return errFrameBody
		}
		return r.done()
	}
	if got != op {
		return errReplyOp
	}
	resp.ShardID = r.int()
	resp.ServerNanos = r.varint()
	switch op {
	case OpInfo:
		resp.Version = r.int()
		resp.Size = r.int()
		resp.Dim = r.int()
		resp.Centroid = r.floats()
	case OpSample, OpDeep:
		resp.Scanned = r.varint()
		resp.Neighbors = r.neighbors()
		resp.Costs = r.costs()
		resp.Spans = r.spans()
	case OpSampleBatch, OpDeepBatch:
		resp.Scanned = r.varint()
		resp.GroupedExec = r.bool()
		if n := r.count(1); n > 0 {
			resp.Batch = make([][]vec.Neighbor, n)
			for i := range resp.Batch {
				resp.Batch[i] = r.neighbors()
			}
		}
		resp.Costs = r.costs()
		resp.Spans = r.spans()
	case OpAdd, OpRemove, OpCompact:
		resp.OK = r.bool()
	case OpShutdown:
	case OpStats, OpMetricsSnap:
		if r.err != nil {
			return r.err
		}
		return decodeGobBody(r.b, op, resp)
	default:
		return errUnknownOp
	}
	return r.done()
}

// appendGobBody appends the gob body of an OpStats or OpMetricsSnap reply.
// Each frame carries a fresh gob stream, type descriptors included.
func appendGobBody(buf []byte, op Op, resp *Response) ([]byte, error) {
	var v any = &metricsBody{Families: resp.Families}
	if op == OpStats {
		v = &statsBody{
			Size:            resp.Size,
			SampleServed:    resp.SampleServed,
			DeepServed:      resp.DeepServed,
			MutationsServed: resp.MutationsServed,
			Tombstones:      resp.Tombstones,
			Telemetry:       resp.Telemetry,
		}
	}
	w := bytes.NewBuffer(buf)
	if err := gob.NewEncoder(w).Encode(v); err != nil {
		return buf, err
	}
	return w.Bytes(), nil
}

// decodeGobBody decodes the gob body of an OpStats or OpMetricsSnap reply
// into resp.
func decodeGobBody(body []byte, op Op, resp *Response) error {
	dec := gob.NewDecoder(bytes.NewReader(body))
	if op == OpMetricsSnap {
		var b metricsBody
		err := dec.Decode(&b)
		resp.Families = b.Families
		return err
	}
	var b statsBody
	if err := dec.Decode(&b); err != nil {
		return err
	}
	resp.Size = b.Size
	resp.SampleServed, resp.DeepServed, resp.MutationsServed = b.SampleServed, b.DeepServed, b.MutationsServed
	resp.Tombstones = b.Tombstones
	resp.Telemetry = b.Telemetry
	return nil
}

//hermes:hotpath
func appendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

//hermes:hotpath
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

//hermes:hotpath
func appendFloats(buf []byte, v []float32) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(v)))
	for _, f := range v {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(f))
	}
	return buf
}

//hermes:hotpath
func appendNeighbors(buf []byte, v []vec.Neighbor) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(v)))
	for _, nb := range v {
		buf = binary.AppendVarint(buf, nb.ID)
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(nb.Score))
	}
	return buf
}

//hermes:hotpath
func appendCosts(buf []byte, v []telemetry.QueryCost) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(v)))
	for _, c := range v {
		buf = binary.AppendVarint(buf, c.Cells)
		buf = binary.AppendVarint(buf, c.SharedCells)
		buf = binary.AppendVarint(buf, c.CodesExclusive)
		buf = binary.AppendVarint(buf, c.CodesAmortized)
		buf = binary.AppendVarint(buf, c.ScanNanos)
		buf = binary.AppendVarint(buf, c.WireBytes)
	}
	return buf
}

//hermes:hotpath
func appendSpans(buf []byte, v []WireSpan, extra int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(v)+extra))
	for _, s := range v {
		buf = appendSpan(buf, s)
	}
	return buf
}

// appendSpan appends one span record.
//
//hermes:hotpath
func appendSpan(buf []byte, s WireSpan) []byte {
	buf = appendString(buf, s.Name)
	buf = binary.AppendVarint(buf, int64(s.Node))
	buf = binary.AppendVarint(buf, s.OffsetNanos)
	return binary.AppendVarint(buf, s.DurNanos)
}

// wireReader consumes a frame body. The first malformed field sets err;
// every later read then returns a zero value, so decoders check once at
// the end (done).
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail() {
	if r.err == nil {
		r.err = errFrameBody
	}
	r.b = nil
}

// done reports the first decode error, or a body with bytes left over.
func (r *wireReader) done() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = errFrameBody
	}
	return r.err
}

// uvarint reads a minimally encoded uvarint: a trailing zero byte would
// decode to the same value but re-encode shorter.
//
//hermes:hotpath
func (r *wireReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

//hermes:hotpath
func (r *wireReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

//hermes:hotpath
func (r *wireReader) int() int { return int(r.varint()) }

//hermes:hotpath
func (r *wireReader) bool() bool {
	if len(r.b) == 0 || r.b[0] > 1 {
		r.fail()
		return false
	}
	v := r.b[0] == 1
	r.b = r.b[1:]
	return v
}

// count reads an element count and rejects one that the bytes left could
// not hold at minSize bytes per element, so no allocation outgrows the
// frame.
//
//hermes:hotpath
func (r *wireReader) count(minSize int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/minSize) {
		r.fail()
		return 0
	}
	return int(n)
}

//hermes:hotpath
func (r *wireReader) f32() float32 {
	if len(r.b) < 4 {
		r.fail()
		return 0
	}
	v := math.Float32frombits(binary.LittleEndian.Uint32(r.b))
	r.b = r.b[4:]
	return v
}

//hermes:hotpath
func (r *wireReader) floats() []float32 {
	var v []float32
	if n := r.count(4); n > 0 {
		v = make([]float32, n)
		for i := range v {
			v[i] = math.Float32frombits(binary.LittleEndian.Uint32(r.b[4*i:]))
		}
		r.b = r.b[4*n:]
	}
	return v
}

//hermes:hotpath
func (r *wireReader) neighbors() []vec.Neighbor {
	var v []vec.Neighbor
	if n := r.count(5); n > 0 {
		v = make([]vec.Neighbor, n)
		for i := range v {
			v[i].ID = r.varint()
			v[i].Score = r.f32()
		}
	}
	return v
}

//hermes:hotpath
func (r *wireReader) costs() []telemetry.QueryCost {
	var v []telemetry.QueryCost
	if n := r.count(6); n > 0 {
		v = make([]telemetry.QueryCost, n)
		for i := range v {
			c := &v[i]
			c.Cells = r.varint()
			c.SharedCells = r.varint()
			c.CodesExclusive = r.varint()
			c.CodesAmortized = r.varint()
			c.ScanNanos = r.varint()
			c.WireBytes = r.varint()
		}
	}
	return v
}

//hermes:hotpath
func (r *wireReader) spans() []WireSpan {
	var v []WireSpan
	if n := r.count(4); n > 0 {
		v = make([]WireSpan, n)
		for i := range v {
			s := &v[i]
			s.Name = r.spanName()
			s.Node = r.int()
			s.OffsetNanos = r.varint()
			s.DurNanos = r.varint()
		}
	}
	return v
}

// bytes reads a length-prefixed byte string, aliasing the frame.
//
//hermes:hotpath
func (r *wireReader) bytes() []byte {
	n := r.count(1)
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

func (r *wireReader) string() string { return string(r.bytes()) }

// spanName reads a span name, returning the shared constant for the names
// nodes ship so decoding a traced reply does not allocate one string per
// span.
func (r *wireReader) spanName() string {
	b := r.bytes()
	switch string(b) {
	case "decode":
		return "decode"
	case "probe_select":
		return "probe_select"
	case "list_scan":
		return "list_scan"
	case "topk_merge":
		return "topk_merge"
	case "encode":
		return "encode"
	default:
		return string(b)
	}
}
