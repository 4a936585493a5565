package netclient

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"s4dcache/internal/netserve"
)

// fuzzResp encodes one response frame followed by its payload.
func fuzzResp(id uint64, status uint8, payload []byte) []byte {
	b := make([]byte, netserve.RespHdrLen, netserve.RespHdrLen+len(payload))
	netserve.PutRespHeader(b, netserve.RespHeader{ID: id, Status: status, PayloadLen: uint32(len(payload))})
	return append(b, payload...)
}

// fuzzCalls are the calls each input is answered against, in id order:
// reads with an exact and a short buffer, writes with and without data.
var fuzzCalls = []struct {
	op   uint8
	file string
	size int64
	data []byte
	buf  int
}{
	{netserve.OpRead, "f", 8, nil, 8},
	{netserve.OpWrite, "f", 8, []byte("01234567"), 0},
	{netserve.OpRead, "g", 8, nil, 4},
	{netserve.OpWrite, "g", 8, nil, 0},
}

// fakeServer accepts one connection, completes the HELLO in payload mode
// with a window of len(fuzzCalls), reads every request frame, answers
// with data and closes.
func fakeServer(ln net.Listener, data []byte) {
	nc, err := ln.Accept()
	if err != nil {
		return
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	hello := make([]byte, netserve.ReqHdrLen+len("fz"))
	if _, err := io.ReadFull(nc, hello); err != nil {
		return
	}
	var resp [netserve.RespHdrLen]byte
	netserve.PutRespHeader(resp[:], netserve.RespHeader{Flags: netserve.FlagPayload, Value: int64(len(fuzzCalls))})
	if _, err := nc.Write(resp[:]); err != nil {
		return
	}
	want := 0
	for _, c := range fuzzCalls {
		want += netserve.ReqHdrLen + len(c.file) + len(c.data)
	}
	if _, err := io.ReadFull(nc, make([]byte, want)); err != nil {
		return
	}
	nc.Write(data)
}

// FuzzClientResponses feeds arbitrary bytes, as the responses to four
// pipelined calls, to a client whose server then closes the connection.
// Whatever the bytes, the client must not panic; every call must complete
// exactly once, with nil or a status error, and return its credit; the
// reader must notice the stream's end, and no reader or writer goroutine
// may outlive Close.
func FuzzClientResponses(f *testing.F) {
	ok := append(append(append(fuzzResp(1, netserve.StatusOK, []byte("abcdefgh")),
		fuzzResp(2, netserve.StatusOK, nil)...),
		fuzzResp(3, netserve.StatusBusy, nil)...),
		fuzzResp(4, netserve.StatusIOError, nil)...)
	f.Add(ok)
	f.Add(ok[:len(ok)-5])                                         // torn header
	f.Add(fuzzResp(1, netserve.StatusOK, []byte("abc")))          // torn payload
	f.Add(fuzzResp(3, netserve.StatusOK, []byte("too long")))     // payload past the call's buffer
	f.Add(fuzzResp(2, netserve.StatusOK, []byte("write")))        // payload on a write
	f.Add(append(fuzzResp(4, 0xee, nil), fuzzResp(4, 0, nil)...)) // unknown status, duplicate id
	f.Add(fuzzResp(99, netserve.StatusDraining, []byte("stale")))
	huge := fuzzResp(1, netserve.StatusOK, nil)
	huge[20], huge[21], huge[22], huge[23] = 0xff, 0xff, 0xff, 0xff
	f.Add(huge) // payload length past MaxPayload
	f.Add([]byte{})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { ln.Close() })

	f.Fuzz(func(t *testing.T, data []byte) {
		served := make(chan struct{})
		go func() {
			defer close(served)
			fakeServer(ln, data)
		}()
		cl, err := Dial(ln.Addr().String(), Options{Tenant: "fz"})
		if err != nil {
			t.Fatal(err)
		}
		var calls []*Call
		for _, c := range fuzzCalls {
			var buf []byte
			if c.buf > 0 {
				buf = make([]byte, c.buf)
			}
			calls = append(calls, cl.Go(c.op, c.file, 0, c.size, c.data, buf))
		}
		for i, call := range calls {
			select {
			case <-call.Done:
			case <-time.After(5 * time.Second):
				t.Fatalf("call %d never completed", i+1)
			}
			if err := call.Err; err != nil && !isStatusErr(err) {
				t.Fatalf("call %d: untyped error %v", i+1, err)
			}
		}
		<-served
		waitUntil(t, "reader notices the closed stream", cl.Lost)
		for i, call := range calls {
			if len(call.Done) != 0 {
				t.Fatalf("call %d completed twice", i+1)
			}
		}
		if got := len(cl.credits); got != len(fuzzCalls) {
			t.Fatalf("%d of %d credits returned", got, len(fuzzCalls))
		}
		cl.Close()
		waitUntil(t, "reader and writer exit", func() bool { return clientLoops() == 0 })
	})
}

// isStatusErr reports whether err is one of the typed failures or the
// error statusErr gives a status the client does not know.
func isStatusErr(err error) bool {
	for _, typed := range []error{ErrBusy, ErrDraining, ErrRejected, ErrIO, ErrConnClosed} {
		if errors.Is(err, typed) {
			return true
		}
	}
	return strings.HasPrefix(err.Error(), "netclient: unknown status")
}
