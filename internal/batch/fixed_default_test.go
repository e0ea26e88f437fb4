package batch

import (
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/wire"
)

// TestFixedLayoutScalarSlots pins the default arm added for kindswitch
// exhaustiveness: state-snapshot and trap kinds get exactly one frame slot,
// bursty per-commit kinds get the full burst width.
func TestFixedLayoutScalarSlots(t *testing.T) {
	l := NewFixedLayout([]event.Kind{event.KindCSRState, event.KindTrap, event.KindLoad}, 4)
	wantMax := map[event.Kind]int{
		event.KindCSRState: 1,
		event.KindTrap:     1,
		event.KindLoad:     4,
	}
	if len(l.Entries) != len(wantMax) {
		t.Fatalf("layout has %d entries, want %d", len(l.Entries), len(wantMax))
	}
	for _, e := range l.Entries {
		if e.Max != wantMax[e.Kind] {
			t.Errorf("layout slot count for %v = %d, want %d", e.Kind, e.Max, wantMax[e.Kind])
		}
	}
}

// TestFixedAddCycleErrorsReturnNoPackets pins AddCycle's error contract:
// each rejection happens before any packet is drawn from the pool, so the
// caller has nothing to release, and the packer still packs the next valid
// cycle correctly.
func TestFixedAddCycleErrorsReturnNoPackets(t *testing.T) {
	layout := NewFixedLayout([]event.Kind{event.KindInstrCommit, event.KindLoad}, 2)
	// One frame per packet: every valid cycle emits exactly one packet.
	fp := NewFixedPacker(layout, layout.FrameSize)
	commit := event.RecordOf(0, 0, &event.InstrCommit{PC: 0x8000_0000, Instr: 0x13})
	load := event.RecordOf(0, 0, &event.Load{PAddr: 0x1000, Data: 7})
	valid := []event.Record{commit, load}

	bad := []struct {
		name  string
		items []wire.Item
		want  string
	}{
		{"nde", []wire.Item{{Type: wire.TypeNDEBase + uint8(event.KindLoad), Payload: make([]byte, 8)}}, "raw events only"},
		{"kind not in layout", wire.FromRecords([]event.Record{event.RecordOf(0, 0, &event.Store{Addr: 8})}), "not in fixed layout"},
		{"over capacity", wire.FromRecords([]event.Record{commit, commit, commit}), "exceeds fixed layout capacity"},
	}
	for _, tc := range bad {
		gets0, puts0 := event.PoolStats()
		pkts, err := fp.AddCycle(tc.items)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: AddCycle error %v, want %q", tc.name, err, tc.want)
		}
		if len(pkts) != 0 {
			t.Fatalf("%s: AddCycle returned %d packets with its error", tc.name, len(pkts))
		}
		if gets, puts := event.PoolStats(); gets-gets0 != puts-puts0 {
			t.Fatalf("%s: %d pool gets vs %d puts", tc.name, gets-gets0, puts-puts0)
		}

		pkts, err = fp.AddCycle(wire.FromRecords(valid))
		if err != nil || len(pkts) != 1 {
			t.Fatalf("%s: valid cycle after the error gave %d packets, err %v", tc.name, len(pkts), err)
		}
		frames, err := UnpackFixedStream(layout, pkts[0].Buf[:pkts[0].Used])
		if err != nil || len(frames) != 1 {
			t.Fatalf("%s: unpack gave %d frames, err %v", tc.name, len(frames), err)
		}
		eventsEqual(t, valid, frames[0])
		pkts[0].Release()
	}
}
