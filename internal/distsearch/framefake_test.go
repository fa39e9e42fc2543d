package distsearch

import (
	"errors"
	"net"
	"sync"
	"testing"
)

// serveFrames runs a fake shard node on a fresh localhost listener and
// returns its address. It speaks the frame protocol through the package's
// own codec and answers each request, in order, with handle's reply; an op
// the codec does not know reaches handle with only Op set. connIdx counts
// accepted connections from 0. A nil reply leaves the request unanswered
// until the test ends. The listener, every accepted connection and every
// handler goroutine are shut down at test cleanup.
func serveFrames(t *testing.T, handle func(connIdx int, req *Request) *Response) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns []net.Conn
	)
	t.Cleanup(func() {
		close(done)
		_ = ln.Close()
		mu.Lock()
		for _, c := range conns {
			_ = c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for connIdx := 0; ; connIdx++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go func(conn net.Conn, connIdx int) {
				defer wg.Done()
				serveFakeConn(t, conn, connIdx, done, handle)
			}(conn, connIdx)
		}
	}()
	return ln.Addr().String()
}

func serveFakeConn(t *testing.T, conn net.Conn, connIdx int, done <-chan struct{}, handle func(int, *Request) *Response) {
	defer func() { _ = conn.Close() }()
	var s frameStream
	s.reset(conn)
	for {
		id, frame, _, err := s.read()
		if err != nil {
			return
		}
		var req Request
		if err := decodeRequest(frame, &req); err != nil && !errors.Is(err, errUnknownOp) {
			t.Errorf("fake node: undecodable request: %v", err)
			return
		}
		resp := handle(connIdx, &req)
		if resp == nil {
			<-done
			return
		}
		buf, err := encodeReply(s.buf, id, req.Op, resp, 0)
		if err == nil {
			err = endFrame(buf)
		}
		if err != nil {
			t.Errorf("fake node: encode reply: %v", err)
			return
		}
		s.buf = buf
		if _, err := conn.Write(buf); err != nil {
			return
		}
	}
}

// fakeInfo is a fake node's handshake reply for shard at dimension dim.
func fakeInfo(shard, dim int) *Response {
	return &Response{ShardID: shard, Size: 10, Dim: dim, Version: ProtocolVersion, Centroid: make([]float32, dim)}
}
