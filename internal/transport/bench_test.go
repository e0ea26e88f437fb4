package transport

import (
	"net"
	"path/filepath"
	"testing"

	"repro/internal/event"
)

// echoRoundTrip starts an echo server on server and returns one full frame
// round trip from client — encode, checksum, write, read, checksum-verify,
// echo back — of a packet-sized payload, plus the bytes one trip moves in
// both directions. It is the op BenchmarkFrameRoundTrip and
// BenchmarkUnixSocketFrameRoundTrip time and their TestAllocBudget* pins.
// Both ends close when tb's cleanup runs.
func echoRoundTrip(tb testing.TB, client, server *Conn) (op func(), size int64) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer server.Close()
		for {
			h, buf, err := server.ReadFrame()
			if err != nil {
				return // client closed
			}
			err = server.WriteFrame(h.Type, buf)
			if buf != nil {
				event.PutBuf(buf)
			}
			if err != nil {
				return
			}
		}
	}()
	tb.Cleanup(func() {
		client.Close()
		<-done
	})

	payload := make([]byte, 4096) // Palladium's PacketBytes
	for i := range payload {
		payload[i] = byte(i)
	}
	return func() {
		if err := client.WriteFrame(FramePacket, payload); err != nil {
			tb.Fatal(err)
		}
		_, buf, err := client.ReadFrame()
		if err != nil {
			tb.Fatal(err)
		}
		if len(buf) != len(payload) {
			tb.Fatalf("echo returned %d bytes, want %d", len(buf), len(payload))
		}
		event.PutBuf(buf)
	}, int64(2 * (FrameHeaderSize + len(payload)))
}

// pipeRoundTrip runs echoRoundTrip over an in-memory connection pair: the
// per-frame floor of every remote session. Everything difftestd adds
// (decode, check, credit) sits on top of it.
func pipeRoundTrip(tb testing.TB) (op func(), size int64) {
	cp, sp := net.Pipe()
	return echoRoundTrip(tb, NewConn(cp), NewConn(sp))
}

// unixRoundTrip runs echoRoundTrip over a real unix-domain socket, so every
// frame pays the kernel's send/receive path: the baseline the shmring
// transport's BenchmarkShmFrameRoundTrip is compared with.
func unixRoundTrip(tb testing.TB) (op func(), size int64) {
	l, err := net.Listen("unix", filepath.Join(tb.TempDir(), "bench.sock"))
	if err != nil {
		tb.Fatal(err)
	}
	defer l.Close()
	cc, err := net.Dial("unix", l.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	sc, err := l.Accept()
	if err != nil {
		cc.Close()
		tb.Fatal(err)
	}
	return echoRoundTrip(tb, NewConn(cc), NewConn(sc))
}

// headerSum returns one CRC32-C checksum over a header plus a packet-sized
// payload — the only per-byte work the framing layer adds.
func headerSum(testing.TB) (op func(), size int64) {
	h := FrameHeader{Magic: FrameMagic, Type: FramePacket, Length: 4096, Seq: 42}
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var sum uint32
	return func() { sum ^= h.Sum(payload) }, int64(frameCheckOffset + len(payload))
}

func BenchmarkFrameRoundTrip(b *testing.B)           { benchOp(b, pipeRoundTrip) }
func BenchmarkUnixSocketFrameRoundTrip(b *testing.B) { benchOp(b, unixRoundTrip) }
func BenchmarkFrameHeaderSum(b *testing.B)           { benchOp(b, headerSum) }

// benchOp times the op newOp returns, reporting its bytes as throughput.
func benchOp(b *testing.B, newOp func(testing.TB) (func(), int64)) {
	op, size := newOp(b)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// The frame paths allocate a fixed, small number of times per op, and none
// may grow: ReadFrame's header array escapes into io.ReadFull, so a round
// trip (one read at each end) costs two, and FrameHeader.Sum's escapes into
// crc32.
func TestAllocBudgetFrameRoundTrip(t *testing.T) {
	op, _ := pipeRoundTrip(t)
	if n := testing.AllocsPerRun(1000, op); n > 3 {
		t.Fatalf("frame round trip allocates %.0f/op, budget 3", n)
	}
}

func TestAllocBudgetUnixSocketFrameRoundTrip(t *testing.T) {
	op, _ := unixRoundTrip(t)
	if n := testing.AllocsPerRun(1000, op); n > 3 {
		t.Fatalf("unix socket frame round trip allocates %.0f/op, budget 3", n)
	}
}

func TestAllocBudgetFrameHeaderSum(t *testing.T) {
	op, _ := headerSum(t)
	if n := testing.AllocsPerRun(1000, op); n > 1 {
		t.Fatalf("FrameHeader.Sum allocates %.0f/op, budget 1", n)
	}
}
