package transport

import (
	"bytes"
	"context"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// FuzzServeMux feeds arbitrary bytes to ServeConn after a valid preface —
// the one framing a peer can reach before it has proved anything. The
// server must neither panic nor hang, and what it allocates must be
// bounded by the bytes it was sent, not by the lengths they claim.
// (cloud.FuzzServe starts above the framing, at the decoded method and
// body.)
func FuzzServeMux(f *testing.F) {
	f.Add([]byte{})
	f.Add(frameBytes(0, "echo", []byte("body")))
	f.Add(append(frameBytes(7, "double", nil), frameBytes(7, "fail", []byte{1})...))
	f.Add(bytes.Join([][]byte{claim(1), claim(maxFrame), []byte("short")}, nil))                  // method name claims a gigabyte
	f.Add(bytes.Join([][]byte{claim(1), claim(4), []byte("echo"), claim(maxFrame), {1, 2}}, nil)) // body claims a gigabyte
	f.Add(bytes.Repeat([]byte{0xff}, 32))                                                         // a varint that never ends
	f.Add(frameBytes(1<<63, "echo", bytes.Repeat([]byte{0xab}, 2*readChunk)))

	f.Fuzz(func(t *testing.T, data []byte) {
		c1, c2 := net.Pipe()
		served := make(chan struct{})
		go func() {
			defer close(served)
			defer c2.Close()
			_ = ServeConn(context.Background(), c2, echoResponder{})
		}()
		go io.Copy(io.Discard, c1) // the server's preface and replies

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c1.Write(prefaceBytes(ProtocolVersion))
		c1.Write(data) // fails early when the server refuses a frame and closes
		c1.Close()
		select {
		case <-served:
		case <-time.After(10 * time.Second):
			t.Fatal("ServeConn did not return after the peer closed")
		}
		runtime.ReadMemStats(&after)
		// Generous per-byte allowance (a 3-byte frame costs a handler
		// goroutine and an encoded reply); the point is that no term
		// depends on a claimed length.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+4096*len(data)); got > limit {
			t.Fatalf("%d bytes allocated serving %d bytes of input (limit %d)", got, len(data), limit)
		}
	})
}
