package shmring

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/transport"
)

// TestWrapAlignments streams thousands of varied-size frames through a
// one-page ring so the pad-to-wrap protocol crosses every alignment class:
// frames ending exactly at the boundary, pads long enough to carry padMagic,
// and tails too short for even the magic word (< 4 bytes).
func TestWrapAlignments(t *testing.T) {
	a, b, err := Pair(MinRingBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()

	const frames = 5000
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			n := i % 97
			out := make([]byte, n)
			for j := range out {
				out[j] = byte(i + j)
			}
			if err := a.WriteFrame(transport.FramePacket, out); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()

	for i := 0; i < frames; i++ {
		fh, payload, err := b.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if int(fh.Length) != i%97 {
			t.Fatalf("frame %d: %d bytes, want %d", i, fh.Length, i%97)
		}
		for j := range payload {
			if payload[j] != byte(i+j) {
				t.Fatalf("frame %d byte %d corrupted", i, j)
			}
		}
		b.ReleasePayload(payload)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestReadTimeoutIsNetError pins the deadline contract: an expired read
// deadline surfaces as a *transport.FrameError whose cause satisfies
// net.Error with Timeout() true — exactly what the server's idle-reap path
// matches on.
func TestReadTimeoutIsNetError(t *testing.T) {
	a, b, err := Pair(MinRingBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	b.SetReadTimeout(10 * time.Millisecond)
	_, _, rerr := b.ReadFrame()
	var fe *transport.FrameError
	if !errors.As(rerr, &fe) {
		t.Fatalf("timeout surfaced %T (%v), want *transport.FrameError", rerr, rerr)
	}
	var ne net.Error
	if !errors.As(rerr, &ne) || !ne.Timeout() {
		t.Fatalf("timeout error %v must satisfy net.Error.Timeout()", rerr)
	}
	if stats := b.LinkStats(); stats.ReaderParks == 0 {
		t.Fatal("a timed-out read must have parked at least once")
	}
}

// TestWriteTimeoutOnFullRing fills the ring with no consumer: the next write
// must time out (net.Error) instead of spinning forever, and park counters
// must record the writer as the blocked side.
func TestWriteTimeoutOnFullRing(t *testing.T) {
	a, b, err := Pair(MinRingBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	full := make([]byte, a.MaxPayload())
	// Two max frames fill the one-page ring exactly.
	for i := 0; i < 2; i++ {
		if err := a.WriteFrame(transport.FramePacket, full); err != nil {
			t.Fatalf("fill frame %d: %v", i, err)
		}
	}
	a.SetWriteTimeout(10 * time.Millisecond)
	werr := a.WriteFrame(transport.FramePacket, full)
	var ne net.Error
	if !errors.As(werr, &ne) || !ne.Timeout() {
		t.Fatalf("full-ring write surfaced %v, want a net.Error timeout", werr)
	}
	if stats := a.LinkStats(); stats.WriterParks == 0 {
		t.Fatal("a timed-out write must have parked at least once")
	}
	// Draining the ring unblocks the writer again.
	a.SetWriteTimeout(time.Second)
	for i := 0; i < 2; i++ {
		_, p, err := b.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		b.ReleasePayload(p)
	}
	if err := a.WriteFrame(transport.FramePacket, full); err != nil {
		t.Fatalf("write after drain: %v", err)
	}
}

// TestSetDeadlineNowInterrupts mirrors the socket cancellation hook: a
// blocked reader must fail promptly once SetDeadlineNow fires.
func TestSetDeadlineNowInterrupts(t *testing.T) {
	a, b, err := Pair(MinRingBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() {
		_, _, err := b.ReadFrame()
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	b.SetDeadlineNow()
	select {
	case err := <-done:
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("interrupted read surfaced %v, want a timeout", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read did not unblock after SetDeadlineNow")
	}
}

// TestCloseSemantics pins the teardown contract: the peer's reader drains
// published frames then sees bare io.EOF; the peer's writer sees
// ErrPeerClosed; the closer's own operations see ErrClosed.
func TestCloseSemantics(t *testing.T) {
	a, b, err := Pair(MinRingBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WriteFrame(transport.FrameEnd, nil); err != nil {
		t.Fatal(err)
	}
	a.Close()

	if fh, _, err := b.ReadFrame(); err != nil || fh.Type != transport.FrameEnd {
		t.Fatalf("frame published before close: type %d err %v", fh.Type, err)
	}
	if _, _, err := b.ReadFrame(); err != io.EOF {
		t.Fatalf("drained ring after peer close = %v, want bare io.EOF", err)
	}
	if err := b.WriteFrame(transport.FramePacket, []byte("x")); !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("write to closed peer = %v, want ErrPeerClosed", err)
	}
	if _, _, err := a.ReadFrame(); !errors.Is(err, ErrClosed) {
		t.Fatalf("read on locally closed conn = %v, want ErrClosed", err)
	}
	if err := a.WriteFrame(transport.FramePacket, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("write on locally closed conn = %v, want ErrClosed", err)
	}
	b.Close()
}

// TestReserveCommit covers the zero-copy producer API: in-place encoding,
// shrunk commits, and the misuse guards.
func TestReserveCommit(t *testing.T) {
	a, b, err := Pair(MinRingBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()

	slot, err := a.ReserveFrame(64)
	if err != nil {
		t.Fatal(err)
	}
	if len(slot) != 64 {
		t.Fatalf("reserved slot is %d bytes, want 64", len(slot))
	}
	if _, err := a.ReserveFrame(8); err == nil {
		t.Fatal("double reservation must fail")
	}
	msg := []byte("packed in place")
	copy(slot, msg)
	if err := a.CommitFrame(transport.FramePacket, len(msg)); err != nil {
		t.Fatal(err)
	}
	fh, payload, err := b.ReadFrame()
	if err != nil || fh.Length != uint32(len(msg)) || !bytes.Equal(payload, msg) {
		t.Fatalf("shrunk commit read back type=%d len=%d err=%v", fh.Type, fh.Length, err)
	}
	b.ReleasePayload(payload)

	if err := a.CommitFrame(transport.FramePacket, 1); err == nil {
		t.Fatal("commit without a reservation must fail")
	}
	if _, err := a.ReserveFrame(a.MaxPayload() + 1); !errors.Is(err, transport.ErrFrameTooLarge) {
		t.Fatalf("oversized reservation = %v, want ErrFrameTooLarge", err)
	}
	if slot, err = a.ReserveFrame(8); err != nil {
		t.Fatal(err)
	}
	if err := a.CommitFrame(transport.FramePacket, 9); err == nil {
		t.Fatal("commit beyond the reservation must fail")
	}
}

// TestReleasePayloadForeignBuffer: a pooled buffer routed to the ring's
// ReleasePayload (the seam's socket-side convention) must go back to the
// pool, not corrupt the tail.
func TestReleasePayloadForeignBuffer(t *testing.T) {
	gets0, puts0 := event.PoolStats()
	a, _, err := Pair(MinRingBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.ReleasePayload(nil) // no-op
	a.ReleasePayload(event.GetBuf(16)[:16])
	gets1, puts1 := event.PoolStats()
	if gets1-gets0 != puts1-puts0 {
		t.Fatalf("pool imbalance: %d gets vs %d puts", gets1-gets0, puts1-puts0)
	}
}

// TestReadFrameAutoRelease: a second ReadFrame without an explicit release
// recycles the outstanding slot, so a sloppy caller degrades to one-frame
// buffering instead of deadlocking the producer.
func TestReadFrameAutoRelease(t *testing.T) {
	a, b, err := Pair(MinRingBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	for i := 0; i < 200; i++ { // 200 × 44-byte frames ≫ one page: requires recycling
		if err := a.WriteFrame(transport.FramePacket, make([]byte, 20)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if _, _, err := b.ReadFrame(); err != nil { // never released explicitly
			t.Fatalf("read %d: %v", i, err)
		}
	}
}

// TestParseAddr covers the shm spec option grammar.
func TestParseAddr(t *testing.T) {
	dir, rb, err := parseAddr("/tmp/rings")
	if err != nil || dir != "/tmp/rings" || rb != DefaultRingBytes {
		t.Fatalf("plain dir: %q %d %v", dir, rb, err)
	}
	dir, rb, err = parseAddr("/tmp/rings?ring=65536")
	if err != nil || dir != "/tmp/rings" || rb != 65536 {
		t.Fatalf("ring option: %q %d %v", dir, rb, err)
	}
	for _, bad := range []string{"", "?ring=4096", "/d?ring=100", "/d?ring=0", "/d?bogus=1", "/d?ring=1073741825"} {
		if _, _, err := parseAddr(bad); err == nil {
			t.Fatalf("parseAddr(%q) must fail", bad)
		}
	}
}

// TestListenRejectsBadRingSpec: a malformed ring option survives ParseSpec
// (scheme options are opaque there) and is diagnosed by the shm scheme at
// Listen time, naming the valid range.
func TestListenRejectsBadRingSpec(t *testing.T) {
	for _, spec := range []string{
		"shm://" + t.TempDir() + "?ring=not-a-number",
		"shm://" + t.TempDir() + "?ring=100", // not a power of two
		"shm://" + t.TempDir() + "?blocksize=4096",
	} {
		l, err := transport.Listen(spec)
		if err == nil {
			l.Close()
			t.Errorf("Listen(%q) must fail on the malformed option", spec)
			continue
		}
		if !strings.Contains(err.Error(), "shmring:") {
			t.Errorf("Listen(%q) = %v, want an shmring option diagnosis", spec, err)
		}
	}
}

// TestPairValidation rejects non-power-of-two and out-of-range ring sizes.
func TestPairValidation(t *testing.T) {
	for _, bad := range []int{100, MinRingBytes - 1, MinRingBytes + 1, MaxRingBytes * 2} {
		if _, _, err := Pair(bad); err == nil {
			t.Fatalf("Pair(%d) must fail", bad)
		}
	}
}

// TestOpenSegmentValidation rejects malformed segment mappings before any
// ring pointer is trusted.
func TestOpenSegmentValidation(t *testing.T) {
	if _, err := openSegment(make([]byte, 100)); err == nil {
		t.Fatal("short segment must be rejected")
	}
	mem := make([]byte, segmentSize(MinRingBytes))
	if _, err := openSegment(mem); err == nil {
		t.Fatal("zero magic must be rejected")
	}
	seg := initSegment(mem, MinRingBytes)
	if _, err := openSegment(mem); err != nil {
		t.Fatalf("valid segment rejected: %v", err)
	}
	_ = seg
	if _, err := openSegment(mem[:len(mem)-8]); err == nil {
		t.Fatal("size/ringBytes mismatch must be rejected")
	}
}

// TestDialTimeoutWithoutListener: an unclaimed segment must error out within
// the dial timeout and leave no file behind.
func TestDialTimeoutWithoutListener(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "rings")
	_, err := transport.DialFrame("shm://"+dir+"?ring=4096", 50*time.Millisecond)
	if err == nil {
		t.Fatal("dial with no listener must time out")
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		t.Fatalf("abandoned segment file %s left behind", e.Name())
	}
}

// TestListenerIgnoresJunk: foreign files in the rendezvous directory must
// not break accepts.
func TestListenerIgnoresJunk(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "rings")
	spec := "shm://" + dir + "?ring=4096"
	l, err := transport.Listen(spec)
	if err != nil {
		t.Skipf("shm rendezvous unavailable: %v", err)
	}
	defer l.Close()
	if err := os.WriteFile(filepath.Join(dir, "note.txt"), []byte("junk"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bogus"+segSuffix), make([]byte, 64), 0o600); err != nil {
		t.Fatal(err)
	}
	accepted := make(chan transport.FrameTransport, 1)
	go func() {
		ft, err := l.AcceptFrame()
		if err == nil {
			accepted <- ft
		}
	}()
	cl, err := transport.DialFrame(spec, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	srv := <-accepted
	defer srv.Close()
	if err := cl.WriteFrame(transport.FrameEnd, nil); err != nil {
		t.Fatal(err)
	}
	if fh, _, err := srv.ReadFrame(); err != nil || fh.Type != transport.FrameEnd {
		t.Fatalf("frame over rendezvous conn: type %d err %v", fh.Type, err)
	}
}

// TestListenerCloseUnblocksAccept: Close must fail a blocked AcceptFrame.
func TestListenerCloseUnblocksAccept(t *testing.T) {
	l, err := transport.Listen("shm://" + filepath.Join(t.TempDir(), "rings"))
	if err != nil {
		t.Skipf("shm rendezvous unavailable: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := l.AcceptFrame()
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	l.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("AcceptFrame after Close must fail")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("AcceptFrame did not unblock on Close")
	}
}
