package netserve_test

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"s4dcache/internal/netserve"
)

// nullEngine completes every request asynchronously without touching
// data, failing odd offsets so IO_ERROR responses are exercised too. It
// keeps no per-file state, so hostile offsets and sizes cost nothing.
type nullEngine struct{}

var errNull = errors.New("null engine: odd offset")

func (nullEngine) Write(rank int, file string, off, size int64, data []byte, done func(error)) error {
	return nullComplete(off, done)
}

func (nullEngine) Read(rank int, file string, off, size int64, buf []byte, done func(error)) error {
	return nullComplete(off, done)
}

func nullComplete(off int64, done func(error)) error {
	var err error
	if off&1 == 1 {
		err = errNull
	}
	go done(err)
	return nil
}

// fuzzFrame encodes one request frame: header, name, then payload bytes
// when flags carries FlagPayload.
func fuzzFrame(id uint64, op, flags uint8, name string, off, size int64, payload []byte) []byte {
	b := make([]byte, netserve.ReqHdrLen, netserve.ReqHdrLen+len(name)+len(payload))
	netserve.PutReqHeader(b, netserve.ReqHeader{ID: id, Op: op, Flags: flags, NameLen: uint16(len(name)), Off: off, Size: size})
	return append(append(b, name...), payload...)
}

// FuzzServeFrames feeds arbitrary bytes, after a valid HELLO, to a live
// server in performance or payload mode, then half-closes the client
// side. Whatever the bytes, the server must not panic; it must answer
// what it decodes and close the connection within a deadline (never hang
// on a torn frame once the peer's stream has ended); and once the
// connection is gone its in-flight count and connection table must be
// back to zero.
func FuzzServeFrames(f *testing.F) {
	write := fuzzFrame(1, netserve.OpWrite, 0, "f", 0, 4096, nil)
	read := fuzzFrame(2, netserve.OpRead, 0, "f", 4096, 4096, nil)
	f.Add(false, write)
	f.Add(true, read)
	f.Add(true, fuzzFrame(3, netserve.OpWrite, netserve.FlagPayload, "f", 8, 4, []byte("abcd")))
	f.Add(false, append(append(append([]byte(nil), write...), read...), write...)) // pipelined past the window
	f.Add(false, fuzzFrame(4, netserve.OpWrite, 0, "f", 1, 4096, nil))             // engine error
	f.Add(false, fuzzFrame(5, netserve.OpHello, 0, "t", netserve.ProtoMagic, netserve.ProtoVersion, nil))
	f.Add(false, fuzzFrame(6, 9, 0, "f", 0, 4096, nil))
	f.Add(false, fuzzFrame(7, netserve.OpRead, 0, "f", -1, 4096, nil))
	f.Add(true, fuzzFrame(8, netserve.OpRead, 0, "f", 0, netserve.MaxPayload+1, nil))
	f.Add(true, fuzzFrame(9, netserve.OpWrite, netserve.FlagPayload, "f", 0, 1<<20, []byte("torn")))
	f.Add(false, write[:netserve.ReqHdrLen-3])

	srvs := map[bool]*netserve.Server{}
	for _, payload := range []bool{false, true} {
		srv, err := netserve.Serve(netserve.Config{Engine: nullEngine{}, Window: 2, Payload: payload})
		if err != nil {
			f.Fatal(err)
		}
		f.Cleanup(srv.Close)
		srvs[payload] = srv
	}
	hello := fuzzFrame(0, netserve.OpHello, 0, "fz", netserve.ProtoMagic, netserve.ProtoVersion, nil)

	f.Fuzz(func(t *testing.T, payload bool, data []byte) {
		srv := srvs[payload]
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		nc.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := nc.Write(hello); err != nil {
			t.Fatal(err)
		}
		var resp [netserve.RespHdrLen]byte
		if _, err := io.ReadFull(nc, resp[:]); err != nil {
			t.Fatalf("hello response: %v", err)
		}
		// The server may abort on a protocol error before consuming
		// everything; a failed write is then expected.
		nc.Write(data)
		nc.(*net.TCPConn).CloseWrite()
		if _, err := io.Copy(io.Discard, nc); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatalf("connection neither answered nor closed within the deadline")
			}
			// A reset is a close that raced unread input.
		}
		waitFor(t, func() bool {
			st := srv.Stats()
			return st.InFlight == 0 && st.Conns == 0
		})
	})
}
