package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/wire"
)

func TestFrameHeaderRoundTrip(t *testing.T) {
	h := FrameHeader{Magic: FrameMagic, Type: FramePacket, Flags: 0x5a, Length: 4096, Seq: 1<<40 + 17}
	enc := h.AppendTo(nil)
	if len(enc) != FrameHeaderSize {
		t.Fatalf("encoded %d bytes, want %d", len(enc), FrameHeaderSize)
	}
	var got FrameHeader
	n, err := got.DecodeFrom(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != FrameHeaderSize {
		t.Fatalf("consumed %d bytes, want %d", n, FrameHeaderSize)
	}
	if got != h {
		t.Fatalf("round trip changed the header:\n in:  %+v\n out: %+v", h, got)
	}
}

func TestFrameHeaderDecodeErrors(t *testing.T) {
	good := FrameHeader{Magic: FrameMagic, Type: FrameHello, Length: 8, Seq: 0}
	enc := good.AppendTo(nil)

	var h FrameHeader
	if _, err := h.DecodeFrom(enc[:FrameHeaderSize-1]); !errors.Is(err, ErrShortHeader) {
		t.Errorf("truncated header: got %v, want ErrShortHeader", err)
	}

	corrupt := append([]byte(nil), enc...)
	corrupt[0] ^= 0xff
	if _, err := h.DecodeFrom(corrupt); !errors.Is(err, ErrBadMagic) {
		t.Errorf("corrupt magic: got %v, want ErrBadMagic", err)
	}

	huge := FrameHeader{Magic: FrameMagic, Type: FramePacket, Length: MaxFrameBytes + 1}
	if _, err := h.DecodeFrom(huge.AppendTo(nil)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized length: got %v, want ErrFrameTooLarge", err)
	}
}

func TestItemsRoundTrip(t *testing.T) {
	items := []wire.Item{
		{Type: 0, Core: 0, Slot: 1, Payload: []byte{1, 2, 3, 4}},
		{Type: 3, Core: 1, Slot: 0, Payload: nil},
		{Type: wire.TypeNDEBase, Core: 2, Slot: 7, Payload: bytes.Repeat([]byte{0xab}, 300)},
	}
	enc, err := AppendItems(nil, items)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != ItemsSize(items) {
		t.Fatalf("encoded %d bytes, ItemsSize says %d", len(enc), ItemsSize(items))
	}
	got, err := DecodeItems(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("decoded %d items, want %d", len(got), len(items))
	}
	for i := range items {
		in, out := items[i], got[i]
		if in.Type != out.Type || in.Core != out.Core || in.Slot != out.Slot ||
			!bytes.Equal(in.Payload, out.Payload) {
			t.Errorf("item %d changed: in %+v out %+v", i, in, out)
		}
	}
}

func TestItemsDecodeErrors(t *testing.T) {
	items := []wire.Item{{Type: 0, Core: 0, Slot: 1, Payload: []byte{1, 2, 3, 4}}}
	enc, err := AppendItems(nil, items)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := DecodeItems(enc[:1]); err == nil {
		t.Error("short count field: decode succeeded")
	}
	// Truncating inside the payload of an item with a known kind must wrap
	// the codec's typed decode error.
	var de *event.DecodeError
	if _, err := DecodeItems(enc[:len(enc)-2]); !errors.As(err, &de) {
		t.Errorf("truncated payload: got %v, want *event.DecodeError", err)
	}
	if _, err := DecodeItems(append(enc, 0xee)); err == nil {
		t.Error("trailing bytes: decode succeeded")
	}
}

// connPair builds a framed connection over an in-memory pipe. The reader side
// runs ReadFrame on the caller's goroutine; writes happen on a helper one
// (net.Pipe is synchronous).
func connPair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return NewConn(a), NewConn(b)
}

func TestConnFrameRoundTrip(t *testing.T) {
	gets0, puts0 := event.PoolStats()
	cw, cr := connPair(t)
	payload := bytes.Repeat([]byte{0x42}, 1000)
	werr := make(chan error, 1)
	go func() { werr <- cw.WriteFrame(FramePacket, payload) }()

	h, buf, err := cr.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != FramePacket || int(h.Length) != len(payload) || h.Seq != 0 {
		t.Fatalf("header %+v does not describe the sent frame", h)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("payload changed in flight")
	}
	event.PutBuf(buf)
	if err := <-werr; err != nil {
		t.Fatal(err)
	}

	// Zero-length frames return a nil payload needing no release.
	go func() { werr <- cw.WriteFrame(FrameEnd, nil) }()
	h, buf, err = cr.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != FrameEnd || buf != nil || h.Seq != 1 {
		t.Fatalf("empty frame: header %+v payload %v", h, buf)
	}
	if err := <-werr; err != nil {
		t.Fatal(err)
	}

	gets1, puts1 := event.PoolStats()
	if gets1-gets0 != puts1-puts0 {
		t.Fatalf("pool imbalance: %d gets vs %d puts", gets1-gets0, puts1-puts0)
	}
}

func TestConnCorruptHeader(t *testing.T) {
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	cr := NewConn(b)

	bad := FrameHeader{Magic: 0xdeadbeef, Type: FramePacket, Length: 4}
	go func() { a.Write(bad.AppendTo(nil)) }()
	if _, _, err := cr.ReadFrame(); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("corrupt magic on the wire: got %v, want ErrBadMagic", err)
	}
}

func TestConnTruncatedHeader(t *testing.T) {
	a, b := net.Pipe()
	t.Cleanup(func() { b.Close() })
	cr := NewConn(b)

	good := FrameHeader{Magic: FrameMagic, Type: FramePacket, Length: 4}
	go func() {
		a.Write(good.AppendTo(nil)[:FrameHeaderSize/2])
		a.Close()
	}()
	if _, _, err := cr.ReadFrame(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated header: got %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestConnTruncatedPayload(t *testing.T) {
	gets0, puts0 := event.PoolStats()
	a, b := net.Pipe()
	t.Cleanup(func() { b.Close() })
	cr := NewConn(b)

	hdr := FrameHeader{Magic: FrameMagic, Type: FramePacket, Length: 100}
	go func() {
		a.Write(hdr.AppendTo(nil))
		a.Write([]byte{1, 2, 3}) // 97 bytes short
		a.Close()
	}()
	if _, _, err := cr.ReadFrame(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated payload: got %v, want io.ErrUnexpectedEOF", err)
	}
	gets1, puts1 := event.PoolStats()
	if gets1-gets0 != puts1-puts0 {
		t.Fatalf("pooled buffer leaked on a failed read: %d gets vs %d puts", gets1-gets0, puts1-puts0)
	}
}

func TestConnSequenceJump(t *testing.T) {
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	cr := NewConn(b)

	skipped := FrameHeader{Magic: FrameMagic, Type: FramePacket, Length: 0, Seq: 5}
	go func() { a.Write(skipped.AppendTo(nil)) }()
	if _, _, err := cr.ReadFrame(); err == nil {
		t.Fatal("sequence jump accepted")
	}
}

// FuzzFrameRoundTrip sends an arbitrary frame through a real framed
// connection and asserts it arrives intact with the buffer pool balanced,
// and that arbitrary bytes fed to the header decoder never panic.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint8(FramePacket), uint8(0), uint64(0), []byte("payload"))
	f.Add(uint8(FrameItems), uint8(1), uint64(9), []byte{})
	f.Add(uint8(0xff), uint8(0xff), uint64(1<<63), bytes.Repeat([]byte{0xaa}, 4096))
	f.Fuzz(func(t *testing.T, typ, flags uint8, seq uint64, payload []byte) {
		// Arbitrary bytes must never panic the header decoder.
		var junk FrameHeader
		junk.DecodeFrom(payload)

		// Header codec round trip for arbitrary field values.
		h := FrameHeader{Magic: FrameMagic, Type: typ, Flags: flags,
			Length: uint32(len(payload)), Seq: seq}
		var got FrameHeader
		if _, err := got.DecodeFrom(h.AppendTo(nil)); err != nil || got != h {
			t.Fatalf("header round trip: %+v -> %+v (%v)", h, got, err)
		}

		// Full wire round trip through a framed connection pair.
		gets0, puts0 := event.PoolStats()
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		cw, cr := NewConn(a), NewConn(b)
		werr := make(chan error, 1)
		go func() { werr <- cw.WriteFrame(typ, payload) }()
		rh, buf, err := cr.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if rh.Type != typ || int(rh.Length) != len(payload) {
			t.Fatalf("header %+v does not describe the %d-byte %d frame", rh, len(payload), typ)
		}
		if len(payload) == 0 {
			if buf != nil {
				t.Fatal("zero-length frame returned a buffer")
			}
		} else {
			if !bytes.Equal(buf, payload) {
				t.Fatal("payload changed in flight")
			}
			event.PutBuf(buf)
		}
		if err := <-werr; err != nil {
			t.Fatal(err)
		}
		gets1, puts1 := event.PoolStats()
		if gets1-gets0 != puts1-puts0 {
			t.Fatalf("pool imbalance: %d gets vs %d puts", gets1-gets0, puts1-puts0)
		}
	})
}

// TestFrameErrorFormatAndWrap pins the two FrameError renderings (with and
// without decoded frame coordinates) and that frameErr never double-wraps.
func TestFrameErrorFormatAndWrap(t *testing.T) {
	bare := frameErr("read", 0, 0, io.ErrUnexpectedEOF)
	if got, want := bare.Error(), "transport: frame read: unexpected EOF"; got != want {
		t.Errorf("bare: %q, want %q", got, want)
	}
	placed := frameErr("write", FramePacket, 42, ErrBadChecksum)
	var fe *FrameError
	if !errors.As(placed, &fe) || fe.Type != FramePacket || fe.Seq != 42 || !errors.Is(placed, ErrBadChecksum) {
		t.Fatalf("placed: %#v", placed)
	}
	if !strings.Contains(placed.Error(), "seq 42") {
		t.Errorf("placed: %q lacks its frame coordinates", placed.Error())
	}
	if again := frameErr("read", 0, 0, placed); again != placed {
		t.Errorf("frameErr re-wrapped a *FrameError: %v", again)
	}
}

// TestConnDeadlineNowStopsLaterReads: after SetDeadlineNow a read still
// fails even though ReadFrame re-arms a fresh per-frame deadline, so a
// force-drained session cannot read on.
func TestConnDeadlineNowStopsLaterReads(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	rx, tx := NewConn(a), NewConn(b)
	rx.SetReadTimeout(time.Second)
	go func() {
		tx.WriteFrame(FramePacket, []byte("one"))
		tx.WriteFrame(FramePacket, []byte("two")) // blocks until b closes
	}()
	_, p, err := rx.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	rx.ReleasePayload(p)

	rx.SetDeadlineNow()
	if _, p, err := rx.ReadFrame(); !isTimeout(err) {
		rx.ReleasePayload(p)
		t.Fatalf("read after SetDeadlineNow: %v, want a deadline expiry", err)
	}
}
