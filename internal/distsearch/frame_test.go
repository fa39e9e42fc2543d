package distsearch

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/hermes"
	"repro/internal/telemetry"
	"repro/internal/vec"
)

// frameCase is one op's request and reply.
type frameCase struct {
	name string
	req  Request
	resp Response
}

func frameCases() []frameCase {
	return []frameCase{
		{
			name: "info",
			req:  Request{Op: OpInfo, Version: ProtocolVersion},
			resp: Response{ShardID: 3, ServerNanos: 1500, Version: ProtocolVersion, Size: 1024, Dim: 2, Centroid: []float32{0.5, -1}},
		},
		{
			name: "sample",
			req:  Request{Op: OpSample, Query: []float32{1, 0.25}, NProbe: 8},
			resp: Response{ShardID: 3, ServerNanos: 9000, Scanned: 64,
				Neighbors: []vec.Neighbor{{ID: 42, Score: 0.75}},
				Costs:     []telemetry.QueryCost{{Cells: 8, Codes: 64}}},
		},
		{
			name: "deep",
			req:  Request{Op: OpDeep, Query: []float32{1, 0.25}, K: 2, NProbe: 128, TraceID: 0xfeed},
			resp: Response{ShardID: 3, ServerNanos: 52000, Scanned: 900,
				Neighbors: []vec.Neighbor{{ID: 42, Score: 0.75}, {ID: -7, Score: 1.5}},
				Costs:     []telemetry.QueryCost{{Cells: 128, Codes: 900, ScanNanos: 40000}},
				Spans: []WireSpan{
					{Name: "decode", Node: 3, OffsetNanos: 0, DurNanos: 800},
					{Name: "list_scan", Node: 3, OffsetNanos: 2000, DurNanos: 40000},
				}},
		},
		{
			name: "shutdown",
			req:  Request{Op: OpShutdown},
			resp: Response{ShardID: 3, ServerNanos: 100},
		},
		{
			name: "sample_batch",
			req:  Request{Op: OpSampleBatch, Queries: [][]float32{{1, 2}, {3, 4}}, NProbe: 8},
			resp: Response{ShardID: 3, ServerNanos: 20000, Scanned: 96,
				Batch: [][]vec.Neighbor{{{ID: 1, Score: 0.5}}, {{ID: 2, Score: 0.25}}},
				Costs: []telemetry.QueryCost{
					{Cells: 8, Codes: 48},
					{Cells: 8, Codes: 48},
				}},
		},
		{
			name: "deep_batch",
			req:  Request{Op: OpDeepBatch, Queries: [][]float32{{1, 2}}, K: 2, NProbe: 128, TraceID: 9},
			resp: Response{ShardID: 3, ServerNanos: 70000, Scanned: 500,
				Batch: [][]vec.Neighbor{{{ID: 5, Score: 0.125}, {ID: 6, Score: 2}}, nil},
				Costs: []telemetry.QueryCost{{Cells: 128, Codes: 500, ScanNanos: 60000}},
				Spans: []WireSpan{{Name: "topk_merge", Node: 3, OffsetNanos: 61000, DurNanos: 900}}},
		},
		{
			name: "add",
			req:  Request{Op: OpAdd, ID: 1234, Query: []float32{0.5, 0.5}},
			resp: Response{ShardID: 3, ServerNanos: 3000, OK: true},
		},
		{
			name: "remove",
			req:  Request{Op: OpRemove, ID: -5},
			resp: Response{ShardID: 3, ServerNanos: 2000},
		},
		{
			name: "stats",
			req:  Request{Op: OpStats},
			resp: Response{ShardID: 3, ServerNanos: 4000, Size: 1024, SampleServed: 9, DeepServed: 8,
				MutationsServed: 7, Tombstones: 2, Telemetry: map[string]float64{"up": 1}},
		},
		{
			name: "compact",
			req:  Request{Op: OpCompact},
			resp: Response{ShardID: 3, ServerNanos: 90000, OK: true},
		},
		{
			name: "metrics_snap",
			req:  Request{Op: OpMetricsSnap},
			resp: Response{ShardID: 3, ServerNanos: 5000, Families: []telemetry.FamilySnapshot{{
				Name: "hermes_test_total", Help: "h", Kind: telemetry.KindCounter,
				Series: []telemetry.SeriesSnapshot{{Value: 42}},
			}}},
		},
		{
			name: "error",
			req:  Request{Op: OpDeep, Query: []float32{1, 0.25}, NProbe: 128},
			resp: Response{Err: "node 3: k must be positive"},
		},
	}
}

// goldenFrames pins each case's request and reply frame bytes (request
// ID 7), so a format change lands as a reviewed diff of these strings.
// The gob-bodied replies (stats, metrics_snap) have no reply golden: gob
// numbers types in the order a process first meets them, so their bytes
// depend on test order and are checked by round trip only.
var goldenFrames = map[string][2]string{
	"info": {
		"0a00000007000000000000000110",
		"1900000007000000000000000106b81710801004020000003f000080bf",
	},
	"sample": {
		"15000000070000000000000002000010020000803f0000803e",
		"1c00000007000000000000000206d08c01800101540000403f01108001000000",
	},
	"deep": {
		"18000000070000000000000003edfd03048002020000803f0000803e",
		"3f00000007000000000000000306c0ac06880e02540000403f0d0000c03f018002880e80f1040002066465636f64650600c00c096c6973745f7363616e06a01f80f104",
	},
	"shutdown": {
		"09000000070000000000000004",
		"0c00000007000000000000000406c801",
	},
	"sample_batch": {
		"1f00000007000000000000000500001002020000803f00000040020000404000008040",
		"2600000007000000000000000506c0b802c0010201020000003f01040000803e02106000001060000000",
	},
	"deep_batch": {
		"170000000700000000000000060904800201020000803f00000040",
		"3700000007000000000000000606e0c508e80702020a0000003e0c0000004000018002e807c0a90700010a746f706b5f6d657267650690b907880e",
	},
	"add": {
		"14000000070000000000000007a413020000003f0000003f",
		"0d00000007000000000000000706f02e01",
	},
	"remove": {
		"0a00000007000000000000000809",
		"0d00000007000000000000000806a01f00",
	},
	"stats": {
		"09000000070000000000000009",
		"",
	},
	"compact": {
		"0900000007000000000000000a",
		"0e00000007000000000000000a06a0fe0a01",
	},
	"metrics_snap": {
		"0900000007000000000000000b",
		"",
	},
	"error": {
		"1600000007000000000000000300008002020000803f0000803e",
		"240000000700000000000000001a6e6f646520333a206b206d75737420626520706f736974697665",
	},
}

// bytesStream is a frameStream reading from b.
func bytesStream(b []byte) *frameStream {
	return &frameStream{r: bufio.NewReader(bytes.NewReader(b))}
}

func requestFrame(t testing.TB, id uint64, req *Request) []byte {
	t.Helper()
	b := encodeRequest(nil, id, req)
	if err := endFrame(b); err != nil {
		t.Fatal(err)
	}
	return b
}

func replyFrame(t testing.TB, id uint64, op Op, resp *Response) []byte {
	t.Helper()
	b, err := encodeReply(nil, id, op, resp, 0)
	if err == nil {
		err = endFrame(b)
	}
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFrameGolden encodes each op's request and reply, compares them with
// the pinned bytes, and decodes them back to the same values.
func TestFrameGolden(t *testing.T) {
	for _, tc := range frameCases() {
		t.Run(tc.name, func(t *testing.T) {
			reqB := requestFrame(t, 7, &tc.req)
			replyB := replyFrame(t, 7, tc.req.Op, &tc.resp)
			golden, ok := goldenFrames[tc.name]
			if !ok {
				t.Fatalf("no golden frames for %s; request %x reply %x", tc.name, reqB, replyB)
			}
			if got := hex.EncodeToString(reqB); got != golden[0] {
				t.Errorf("request frame\n got %s\nwant %s", got, golden[0])
			}
			if golden[1] != "" {
				if got := hex.EncodeToString(replyB); got != golden[1] {
					t.Errorf("reply frame\n got %s\nwant %s", got, golden[1])
				}
			}

			var req Request
			if err := decodeRequest(reqB[frameHeaderLen:], &req); err != nil {
				t.Fatalf("decode request: %v", err)
			}
			if !reflect.DeepEqual(req, tc.req) {
				t.Errorf("request round trip:\n got %+v\nwant %+v", req, tc.req)
			}
			var resp Response
			if err := decodeReply(replyB[frameHeaderLen:], tc.req.Op, &resp); err != nil {
				t.Fatalf("decode reply: %v", err)
			}
			if !reflect.DeepEqual(resp, tc.resp) {
				t.Errorf("reply round trip:\n got %+v\nwant %+v", resp, tc.resp)
			}
		})
	}
}

// TestFrameDecodeRejects covers the decode errors a hostile or broken peer
// can provoke: counts past the bytes left, non-minimal varints, bad bools,
// trailing bytes, a reply for another op, and an unknown request op.
func TestFrameDecodeRejects(t *testing.T) {
	sample := requestFrame(t, 1, &Request{Op: OpSample, Query: []float32{1}, NProbe: 8})
	body := sample[frameHeaderLen:]
	for name, frame := range map[string][]byte{
		"empty":             {},
		"count past end":    {byte(OpSample), 0, 0, 16, 0x7f, 0, 0, 0, 0},
		"non-minimal":       {byte(OpSample), 0x80, 0x00, 0, 16, 0},
		"trailing byte":     append(bytes.Clone(body), 0),
		"truncated float":   body[:len(body)-1],
		"huge query count":  {byte(OpSampleBatch), 0, 0, 0, 16, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"unknown op":        {0x7e},
		"shutdown has body": {byte(OpShutdown), 0},
	} {
		var req Request
		if err := decodeRequest(frame, &req); err == nil {
			t.Errorf("%s: decodeRequest accepted %x", name, frame)
		}
	}
	var req Request
	if err := decodeRequest([]byte{0x7e}, &req); !errors.Is(err, errUnknownOp) || req.Op != 0x7e {
		t.Errorf("unknown op: err %v op %d, want errUnknownOp with the op set", err, req.Op)
	}
	reply := replyFrame(t, 1, OpSample, &Response{ShardID: 1})
	var resp Response
	if err := decodeReply(reply[frameHeaderLen:], OpDeep, &resp); !errors.Is(err, errReplyOp) {
		t.Errorf("reply for another op: err %v, want errReplyOp", err)
	}
	// OpAdd reply: ShardID, ServerNanos, then an OK byte that is neither 0
	// nor 1.
	if err := decodeReply([]byte{byte(OpAdd), 6, 0, 2}, OpAdd, &resp); err == nil {
		t.Error("bad bool: decodeReply accepted an OK byte of 2")
	}
}

// TestFrameStreamRejectsLength checks the length field bounds: a frame
// shorter than its ID and op, or longer than maxFrameLen, fails before any
// buffer is sized from it.
func TestFrameStreamRejectsLength(t *testing.T) {
	for _, n := range []uint32{0, minFrameLen - 1, maxFrameLen + 1, 0xffffffff} {
		hdr := make([]byte, frameHeaderLen+1)
		hdr[0], hdr[1], hdr[2], hdr[3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
		s := bytesStream(hdr)
		if _, _, started, err := s.read(); !errors.Is(err, errFrameLen) || !started {
			t.Errorf("length %d: err %v started %v, want errFrameLen", n, err, started)
		}
		if cap(s.buf) != 0 {
			t.Errorf("length %d: buffer sized to %d", n, cap(s.buf))
		}
	}
}

// TestSearchWireBytesAreFrameSizes pins one Search's Result.Cost.WireBytes
// to the sizes of the frames that served it: every sample request and
// reply, plus the deep request and reply of the one deep-searched shard.
func TestSearchWireBytesAreFrameSizes(t *testing.T) {
	const dim = 4
	sampleReply := func(shard int) *Response {
		return &Response{ShardID: shard, Scanned: 30, Neighbors: []vec.Neighbor{{ID: int64(shard), Score: float32(shard)}},
			Costs: []telemetry.QueryCost{{Cells: 8, Codes: 30}}}
	}
	deepReply := func(shard int) *Response {
		return &Response{ShardID: shard, Scanned: 300,
			Neighbors: []vec.Neighbor{{ID: int64(shard * 10), Score: 0.5}, {ID: int64(shard*10 + 1), Score: 0.75}},
			Costs:     []telemetry.QueryCost{{Cells: 64, Codes: 300}}}
	}
	var addrs []string
	for shard := 0; shard < 2; shard++ {
		shard := shard
		addrs = append(addrs, serveFrames(t, func(_ int, req *Request) *Response {
			switch req.Op {
			case OpInfo:
				return fakeInfo(shard, dim)
			case OpSample:
				return sampleReply(shard)
			case OpDeep:
				return deepReply(shard)
			}
			return &Response{Err: "unsupported op"}
		}))
	}
	co, err := DialOpts(addrs, DialOptions{Timeout: time.Second, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	q := []float32{1, 2, 3, 4}
	p := hermes.DefaultParams()
	p.DeepClusters = 1
	res, err := co.Search(q, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DeepNodes) != 1 || res.DeepNodes[0] != 0 {
		t.Fatalf("deep nodes %v, want [0] (shard 0 samples closest)", res.DeepNodes)
	}
	sampleReq := requestFrame(t, 1, &Request{Op: OpSample, Query: q, NProbe: p.SampleNProbe})
	deepReq := requestFrame(t, 1, &Request{Op: OpDeep, Query: q, K: p.K, NProbe: p.DeepNProbe})
	want := int64(0)
	for shard := 0; shard < 2; shard++ {
		want += int64(len(sampleReq) + len(replyFrame(t, 1, OpSample, sampleReply(shard))))
	}
	want += int64(len(deepReq) + len(replyFrame(t, 1, OpDeep, deepReply(0))))
	if res.Cost.WireBytes != want {
		t.Fatalf("WireBytes = %d, want %d (sum of request and reply frame sizes)", res.Cost.WireBytes, want)
	}
}

// TestDialRejectsGobAndWrongVersionPeers: a node still speaking the gob
// stream, or a framed node of another protocol version, fails Dial within
// DialOptions.Timeout with an error naming both versions; a real node
// answers a handshake of another version with an error naming both.
func TestDialRejectsGobAndWrongVersionPeers(t *testing.T) {
	const timeout = 300 * time.Millisecond
	dial := func(addr string) error {
		t.Helper()
		start := time.Now()
		co, err := DialOpts([]string{addr}, DialOptions{Timeout: timeout, Telemetry: telemetry.NewRegistry()})
		if err == nil {
			_ = co.Close()
			t.Fatalf("dial of %s succeeded", addr)
		}
		if took := time.Since(start); took > timeout+time.Second {
			t.Errorf("dial took %v, past its %v timeout", took, timeout)
		}
		return err
	}

	t.Run("gob peer", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		defer wg.Wait()
		defer ln.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			// What a gob-stream node does with the handshake: decode and
			// reply, or drop the connection on a decode error.
			var req Request
			if err := gob.NewDecoder(conn).Decode(&req); err != nil {
				return
			}
			_ = gob.NewEncoder(conn).Encode(&Response{Dim: 4})
		}()
		err = dial(ln.Addr().String())
		for _, want := range []string{"v8", "v6"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %s", err, want)
			}
		}
	})

	t.Run("silent peer", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		accepted := make(chan net.Conn, 1)
		go func() {
			if conn, err := ln.Accept(); err == nil {
				accepted <- conn
			}
			close(accepted)
		}()
		err = dial(ln.Addr().String())
		if !strings.Contains(err.Error(), "v8") {
			t.Errorf("error %q does not name v8", err)
		}
		if conn := <-accepted; conn != nil {
			_ = conn.Close()
		}
	})

	t.Run("wrong version", func(t *testing.T) {
		addr := serveFrames(t, func(_ int, req *Request) *Response {
			info := fakeInfo(0, 4)
			info.Version = 99
			return info
		})
		err := dial(addr)
		for _, want := range []string{"v99", "v8"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %s", err, want)
			}
		}
	})

	t.Run("node rejects old coordinator", func(t *testing.T) {
		_, lc, _, _ := cluster(t, 200, 1)
		conn, err := net.Dial("tcp", lc.Addrs()[0])
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		var s frameStream
		s.reset(conn)
		if _, err := conn.Write(requestFrame(t, 1, &Request{Op: OpInfo, Version: 7})); err != nil {
			t.Fatal(err)
		}
		_, frame, _, err := s.read()
		if err != nil {
			t.Fatal(err)
		}
		var resp Response
		if err := decodeReply(frame, OpInfo, &resp); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(resp.Err, "v7") || !strings.Contains(resp.Err, "v8") {
			t.Errorf("handshake error %q does not name both versions", resp.Err)
		}
	})
}

// TestFrameCodecAllocs pins the codec's allocation budget: encoding into a
// warmed buffer allocates nothing, and decoding allocates only the slices
// it hands to the caller.
func TestFrameCodecAllocs(t *testing.T) {
	req := &Request{Op: OpDeep, Query: make([]float32, 32), K: 5, NProbe: 128, TraceID: 3}
	resp := &Response{ShardID: 1, ServerNanos: 5, Scanned: 900,
		Neighbors: make([]vec.Neighbor, 5), Costs: make([]telemetry.QueryCost, 1),
		Spans: []WireSpan{{Name: "decode"}, {Name: "list_scan"}}}
	reqFrame := requestFrame(t, 1, req)[frameHeaderLen:]
	replyFrameB := replyFrame(t, 1, OpDeep, resp)[frameHeaderLen:]
	buf := make([]byte, 0, 1024)
	for _, c := range []struct {
		name string
		want float64
		run  func()
	}{
		{"encode request", 0, func() { buf = encodeRequest(buf, 1, req); _ = endFrame(buf) }},
		{"encode reply", 0, func() { buf, _ = encodeReply(buf, 1, OpDeep, resp, 0); _ = endFrame(buf) }},
		// The query.
		{"decode request", 1, func() { var r Request; _ = decodeRequest(reqFrame, &r) }},
		// Neighbors, costs and spans; span names are shared constants.
		{"decode reply", 3, func() { var r Response; _ = decodeReply(replyFrameB, OpDeep, &r) }},
	} {
		if got := testing.AllocsPerRun(100, c.run); got != c.want {
			t.Errorf("%s: %v allocs, want %v", c.name, got, c.want)
		}
	}
}
