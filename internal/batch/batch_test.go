package batch

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/event"
	"repro/internal/wire"
)

// randomCycle builds a plausible monitor cycle: commits with attached events
// plus trailing snapshots, in canonical order.
func randomCycle(r *rand.Rand, core uint8) []event.Record {
	var recs []event.Record
	if r.Intn(10) == 0 {
		recs = append(recs, event.RecordOf(0, core, &event.Interrupt{Cause: 7, PC: r.Uint64()}))
		recs = append(recs, event.RecordOf(0, core, &event.ArchIntRegState{}))
		return recs
	}
	n := 1 + r.Intn(4)
	for i := 0; i < n; i++ {
		recs = append(recs, event.RecordOf(0, core, &event.InstrCommit{PC: r.Uint64(), Instr: uint32(r.Uint32())}))
		if r.Intn(3) == 0 {
			recs = append(recs, event.RecordOf(0, core, &event.Load{PAddr: r.Uint64(), Data: r.Uint64()}))
		}
		if r.Intn(4) == 0 {
			recs = append(recs, event.RecordOf(0, core, &event.Store{Addr: r.Uint64(), Data: r.Uint64()}))
		}
		if r.Intn(8) == 0 {
			rf := &event.Refill{Addr: r.Uint64()}
			for j := range rf.Data {
				rf.Data[j] = r.Uint64()
			}
			recs = append(recs, event.RecordOf(0, core, rf))
		}
	}
	recs = append(recs, event.RecordOf(0, core, &event.ArchIntRegState{GPR: [32]uint64{1: r.Uint64()}}))
	recs = append(recs, event.RecordOf(0, core, &event.CSRState{Mstatus: r.Uint64()}))
	if r.Intn(6) == 0 {
		big := &event.ArchVecRegState{}
		big.VReg[3][1] = r.Uint64()
		recs = append(recs, event.RecordOf(0, core, big))
	}
	return recs
}

func eventsEqual(t *testing.T, want []event.Record, got []wire.Item) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("item count: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		rec, err := wire.ToRecord(got[i])
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		ev, err := rec.Event()
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if got[i].Core != want[i].Core {
			t.Fatalf("item %d core: got %d, want %d (kind %v)", i, got[i].Core, want[i].Core, ev.Kind())
		}
		if wantEv, _ := want[i].Event(); !reflect.DeepEqual(ev, wantEv) {
			t.Fatalf("item %d (%v) payload mismatch", i, ev.Kind())
		}
	}
}

// TestPackUnpackRoundTrip is the central Batch property: packing N cycles
// and unpacking yields exactly the original events in the original per-core
// checking order.
func TestPackUnpackRoundTrip(t *testing.T) {
	for _, pktSize := range []int{2048, 4096, 16384} {
		r := rand.New(rand.NewSource(int64(pktSize)))
		p := NewPacker(pktSize)
		var u Unpacker
		var want []event.Record
		var got []wire.Item

		feed := func(pkts []Packet) {
			for _, pkt := range pkts {
				items, err := u.AddPacket(pkt.Buf)
				if err != nil {
					t.Fatalf("pkt %d: unpack: %v", pktSize, err)
				}
				got = append(got, items...)
			}
		}

		for c := 0; c < 300; c++ {
			cycle := randomCycle(r, 0)
			if r.Intn(3) == 0 { // dual-core cycles
				cycle = append(cycle, randomCycle(r, 1)...)
			}
			for _, rec := range cycle {
				want = append(want, rec.Clone())
			}
			feed(p.AddCycle(wire.FromRecords(cycle)))
			// The items alias the cycle's encodings, which a monitor
			// reuses next cycle: the open packet must have copied them.
			for _, rec := range cycle {
				clear(rec.Data)
			}
		}
		feed(p.Flush())
		got = append(got, u.Flush()...)
		eventsEqual(t, want, got)

		if p.Utilization() < 0.85 {
			t.Errorf("pkt %d: utilization %.2f, tight packing should exceed 0.85", pktSize, p.Utilization())
		}
	}
}

// TestPackingReducesInvocations: the headline Batch effect — packets are far
// fewer than events.
func TestPackingReducesInvocations(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	p := NewPacker(4096)
	events, packets := 0, 0
	for c := 0; c < 500; c++ {
		cycle := randomCycle(r, 0)
		events += len(cycle)
		packets += len(p.AddCycle(wire.FromRecords(cycle)))
	}
	packets += len(p.Flush())
	if packets == 0 || events/packets < 10 {
		t.Errorf("packing ratio too low: %d events in %d packets", events, packets)
	}
}

func TestSegmentSplitAcrossPackets(t *testing.T) {
	// A cycle with one huge event relative to the packet forces
	// transmission-level splitting.
	p := NewPacker(MinPacketBytes)
	var u Unpacker
	var cycle []event.Record
	for i := 0; i < 4; i++ {
		big := &event.ArchVecRegState{}
		big.VReg[0][0] = uint64(i)
		cycle = append(cycle, event.RecordOf(0, 0, &event.InstrCommit{PC: uint64(i)}))
		cycle = append(cycle, event.RecordOf(0, 0, big))
	}
	var got []wire.Item
	for _, pkt := range append(p.AddCycle(wire.FromRecords(cycle)), p.Flush()...) {
		items, err := u.AddPacket(pkt.Buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, items...)
	}
	got = append(got, u.Flush()...)
	eventsEqual(t, cycle, got)
	if p.Packets < 4 {
		t.Errorf("expected the cycle split across several packets, got %d", p.Packets)
	}
}

func TestUnpackerRejectsCorruptPacket(t *testing.T) {
	var u Unpacker
	if _, err := u.AddPacket([]byte{1}); err == nil {
		t.Error("short packet accepted")
	}
	bad := make([]byte, 64)
	bad[0] = 200 // absurd segment count
	if _, err := u.AddPacket(bad); err == nil {
		t.Error("corrupt segment count accepted")
	}
}

func TestFixedOffsetBubbles(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	layout := NewFixedLayout(nil, 4)
	fp := NewFixedPacker(layout, 4096)
	tight := NewPacker(4096)

	fixedPkts, tightPkts := 0, 0
	for c := 0; c < 300; c++ {
		items := wire.FromRecords(randomCycle(r, 0))
		pkts, err := fp.AddCycle(items)
		if err != nil {
			t.Fatal(err)
		}
		fixedPkts += len(pkts)
		tightPkts += len(tight.AddCycle(items))
	}
	fixedPkts += len(fp.Flush())
	tightPkts += len(tight.Flush())

	if br := fp.BubbleRatio(); br < 0.6 {
		t.Errorf("fixed-offset bubble ratio %.2f, paper reports >0.6", br)
	}
	ratio := float64(fixedPkts) / float64(tightPkts)
	if ratio < 1.5 {
		t.Errorf("fixed-offset needs %.2f× the packets of tight packing, expected ≥1.5×", ratio)
	}
	t.Logf("bubbles %.1f%%, packet ratio %.2f×", fp.BubbleRatio()*100, ratio)
}

func TestFixedStreamRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	layout := NewFixedLayout(nil, 4)
	fp := NewFixedPacker(layout, 1<<20) // one giant packet: keep the stream whole
	var want [][]event.Record
	for c := 0; c < 50; c++ {
		cycle := randomCycle(r, 0)
		want = append(want, cycle)
		if _, err := fp.AddCycle(wire.FromRecords(cycle)); err != nil {
			t.Fatal(err)
		}
	}
	pkts := fp.Flush()
	if len(pkts) != 1 {
		t.Fatalf("expected single packet, got %d", len(pkts))
	}
	frames, err := UnpackFixedStream(layout, pkts[0].Buf[:pkts[0].Used])
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != len(want) {
		t.Fatalf("frames: got %d, want %d", len(frames), len(want))
	}
	for i := range frames {
		eventsEqual(t, want[i], frames[i])
	}
}

func BenchmarkPackCycle(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	cycles := make([][]wire.Item, 64)
	for i := range cycles {
		cycles[i] = wire.FromRecords(randomCycle(r, 0))
	}
	p := NewPacker(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AddCycle(cycles[i%len(cycles)])
	}
}
