package distsearch

// Fuzz targets for the frame decoders. Both ends of the protocol decode
// frames straight from a TCP peer (Node.serveConn, nodeClient), so a
// malformed or truncated frame may only yield an error — never a panic, and
// never an allocation larger than the bytes left in the frame. A frame that
// decodes must re-encode to the same bytes (the gob bodies of OpStats and
// OpMetricsSnap excepted: they must only re-encode). The seeds are one
// valid frame per op plus truncated, bit-flipped, inflated-length and
// inflated-count variants, so `go test` (which runs only the seed corpus)
// exercises every class.

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// addSeeds registers the valid frames, corrupted variants of the first
// one — a truncated prefix, a flipped bit in the middle and near the end,
// and length fields claiming more than follows and more than maxFrameLen —
// the inflated-count frame, and the empty input.
func addSeeds(f *testing.F, valid [][]byte, inflatedCount []byte) {
	for _, v := range valid {
		f.Add(v)
	}
	first := valid[0]
	f.Add(first[:len(first)/2])
	for _, at := range []int{len(first) / 2, len(first) - 2} {
		mut := bytes.Clone(first)
		mut[at] ^= 0x40
		f.Add(mut)
	}
	for _, n := range []uint32{uint32(len(first)) + 100, maxFrameLen + 1} {
		mut := bytes.Clone(first)
		binary.LittleEndian.PutUint32(mut, n)
		f.Add(mut)
	}
	f.Add(inflatedCount)
	f.Add([]byte{})
}

// inflatedCountFrame is a frame of op whose body is prefix, then an element
// count of 1<<20 followed by only five bytes.
func inflatedCountFrame(op Op, prefix ...byte) []byte {
	b := beginFrame(nil, 1, op)
	b = append(b, prefix...)
	b = binary.AppendUvarint(b, 1<<20)
	b = append(b, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

func FuzzRequestDecode(f *testing.F) {
	var valid [][]byte
	for _, tc := range frameCases() {
		valid = append(valid, requestFrame(f, 7, &tc.req))
	}
	// OpDeep: TraceID, K, NProbe, then the query's float count.
	addSeeds(f, valid, inflatedCountFrame(OpDeep, 0, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		id, frame, _, err := bytesStream(data).read()
		if err != nil {
			return
		}
		var req Request
		if err := decodeRequest(frame, &req); err != nil {
			return
		}
		if got := requestFrame(t, id, &req); !bytes.Equal(got, data[:frameHeaderLen+len(frame)]) {
			t.Fatalf("request frame does not re-encode to its bytes:\n got %x\nwant %x", got, data[:frameHeaderLen+len(frame)])
		}
	})
}

func FuzzResponseDecode(f *testing.F) {
	var valid [][]byte
	for _, tc := range frameCases() {
		valid = append(valid, replyFrame(f, 7, tc.req.Op, &tc.resp))
	}
	// OpDeep reply: ShardID, ServerNanos, Scanned, then the neighbor count.
	addSeeds(f, valid, inflatedCountFrame(OpDeep, 0, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		id, frame, _, err := bytesStream(data).read()
		if err != nil {
			return
		}
		op := Op(frame[0])
		if op == opError {
			op = OpDeep
		}
		var resp Response
		if err := decodeReply(frame, op, &resp); err != nil {
			return
		}
		got, err := encodeReply(nil, id, op, &resp, 0)
		if err == nil {
			err = endFrame(got)
		}
		if err != nil {
			t.Fatalf("decoded reply does not re-encode: %v", err)
		}
		if op != OpStats && op != OpMetricsSnap && !bytes.Equal(got, data[:frameHeaderLen+len(frame)]) {
			t.Fatalf("reply frame does not re-encode to its bytes:\n got %x\nwant %x", got, data[:frameHeaderLen+len(frame)])
		}
	})
}
