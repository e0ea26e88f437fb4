package shmring

import (
	"testing"

	"repro/internal/transport"
	"repro/internal/wire"
)

// ringRoundTrip is the ring twin of the transport package's echo round trip:
// one full frame round trip — encode, checksum, publish, consume,
// checksum-verify, echo back — of a packet-sized payload over a loopback
// ring pair, plus the bytes one trip moves in both directions. It is the op
// BenchmarkShmFrameRoundTrip times and TestAllocBudgetShmFrameRoundTrip pins.
func ringRoundTrip(tb testing.TB) (op func(), size int64) {
	client, server, err := Pair(DefaultRingBytes)
	if err != nil {
		tb.Fatal(err)
	}
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
			server.ReleasePayload(buf)
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
		if err := client.WriteFrame(transport.FramePacket, payload); err != nil {
			tb.Fatal(err)
		}
		_, buf, err := client.ReadFrame()
		if err != nil {
			tb.Fatal(err)
		}
		if len(buf) != len(payload) {
			tb.Fatalf("echo returned %d bytes, want %d", len(buf), len(payload))
		}
		client.ReleasePayload(buf)
	}, int64(2 * (transport.FrameHeaderSize + len(payload)))
}

// packCheckZeroCopy returns one batch-pack → publish → consume →
// checksum-verify pass with the zero-copy producer API, plus the bytes it
// moves: wire items are encoded by transport.AppendItems directly into a
// ReserveFrame slot, and the consumer verifies and releases the frame in
// place. The packet bytes are written exactly once (at encode time, into
// the shared mapping) and never copied again. It is the op
// BenchmarkShmPackCheckZeroCopy times and TestAllocBudgetShmPackCheckZeroCopy
// pins.
func packCheckZeroCopy(tb testing.TB) (op func(), size int64) {
	client, server, err := Pair(DefaultRingBytes)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		client.Close()
		server.Close()
	})

	// One cycle's worth of commit items, the shape the batch packer flushes.
	itemPayload := make([]byte, 64)
	for i := range itemPayload {
		itemPayload[i] = byte(i * 3)
	}
	items := make([]wire.Item, 16)
	for i := range items {
		items[i] = wire.Item{Type: 1, Core: uint8(i % 4), Slot: uint8(i), Payload: itemPayload}
	}
	n := transport.ItemsSize(items)
	return func() {
		slot, err := client.ReserveFrame(n)
		if err != nil {
			tb.Fatal(err)
		}
		enc, err := transport.AppendItems(slot[:0], items)
		if err != nil {
			tb.Fatal(err)
		}
		if err := client.CommitFrame(transport.FrameItems, len(enc)); err != nil {
			tb.Fatal(err)
		}
		fh, payload, err := server.ReadFrame() // CRC-verifies in place
		if err != nil {
			tb.Fatal(err)
		}
		if int(fh.Length) != n {
			tb.Fatalf("consumed %d bytes, want %d", fh.Length, n)
		}
		server.ReleasePayload(payload)
	}, int64(transport.FrameHeaderSize + n)
}

func BenchmarkShmFrameRoundTrip(b *testing.B) {
	op, size := ringRoundTrip(b)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkShmPackCheckZeroCopy(b *testing.B) {
	op, size := packCheckZeroCopy(b)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func TestAllocBudgetShmFrameRoundTrip(t *testing.T) {
	op, _ := ringRoundTrip(t)
	if n := testing.AllocsPerRun(1000, op); n > 0 {
		t.Fatalf("ring frame round trip allocates %.0f/op, budget 0", n)
	}
}

func TestAllocBudgetShmPackCheckZeroCopy(t *testing.T) {
	op, _ := packCheckZeroCopy(t)
	if n := testing.AllocsPerRun(1000, op); n > 0 {
		t.Fatalf("zero-copy pack and check allocates %.0f/op, budget 0", n)
	}
}
