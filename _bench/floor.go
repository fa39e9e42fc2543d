package main

import (
	"io"
	"net"
	"sync"
	"time"
)

// The transport floor: a bare loopback TCP echo with no codec, the cost any
// node round trip pays before decoding, scanning or encoding anything.
// distsearch.node.excess_us is measured over it.

// echoServer answers every reqSize-byte message with respSize bytes.
type echoServer struct {
	ln       net.Listener
	wg       sync.WaitGroup
	reqSize  int
	respSize int
}

func startEcho(reqSize, respSize int) (*echoServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &echoServer{ln: ln, reqSize: reqSize, respSize: respSize}
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

func (s *echoServer) accept() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go s.serve(conn)
	}
}

func (s *echoServer) serve(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	req := make([]byte, s.reqSize)
	resp := make([]byte, s.respSize)
	for {
		if _, err := io.ReadFull(conn, req); err != nil {
			return
		}
		if _, err := conn.Write(resp); err != nil {
			return
		}
	}
}

// close stops the listener and waits for every connection handler; the
// caller closes its client connections first.
func (s *echoServer) close() {
	_ = s.ln.Close()
	s.wg.Wait()
}

// floorRTT returns the median round trip of n request/response exchanges
// of the given sizes over one loopback connection.
func floorRTT(reqSize, respSize, n int) (time.Duration, error) {
	s, err := startEcho(reqSize, respSize)
	if err != nil {
		return 0, err
	}
	defer s.close()
	conn, err := net.Dial("tcp", s.ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	req := make([]byte, reqSize)
	resp := make([]byte, respSize)
	rtts := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := conn.Write(req); err != nil {
			return 0, err
		}
		if _, err := io.ReadFull(conn, resp); err != nil {
			return 0, err
		}
		rtts = append(rtts, float64(time.Since(t0)))
	}
	return time.Duration(median(rtts)), nil
}

// floorThroughput streams total bytes through a loopback echo in chunk-sized
// messages, one writer and one reader, and returns MB/s of payload echoed.
func floorThroughput(chunk, total int) (float64, error) {
	s, err := startEcho(chunk, chunk)
	if err != nil {
		return 0, err
	}
	defer s.close()
	conn, err := net.Dial("tcp", s.ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	n := total / chunk
	buf := make([]byte, chunk)
	var werr error
	var wg sync.WaitGroup
	t0 := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		out := make([]byte, chunk)
		for i := 0; i < n; i++ {
			if _, werr = conn.Write(out); werr != nil {
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(conn, buf); err != nil {
			_ = conn.Close() // unblock the writer before waiting for it
			wg.Wait()
			return 0, err
		}
	}
	wg.Wait()
	if werr != nil {
		return 0, werr
	}
	return float64(n*chunk) / (1 << 20) / time.Since(t0).Seconds(), nil
}
