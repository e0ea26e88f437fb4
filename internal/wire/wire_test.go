package wire

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/event"
)

func TestRawItemRoundTrip(t *testing.T) {
	ev := &event.InstrCommit{PC: 0x80000000, Instr: 0x13, Wdata: 42}
	it := RawItem(1, 3, ev)
	if k, ok := it.Kind(); !ok || k != event.KindInstrCommit {
		t.Fatalf("kind = %v %v", k, ok)
	}
	rec, err := ToRecord(it)
	if err != nil {
		t.Fatal(err)
	}
	back, err := rec.Event()
	if err != nil || rec.Core != 1 {
		t.Fatal(err, rec.Core)
	}
	if !reflect.DeepEqual(ev, back) {
		t.Error("raw round trip mismatch")
	}
	if it.InstrCount() != 1 {
		t.Errorf("commit InstrCount = %d", it.InstrCount())
	}
}

func TestNDEItemRoundTrip(t *testing.T) {
	ev := &event.Interrupt{Cause: 7, PC: 0x80001234}
	it := NDEItem(0, 0, 99887, ev)
	if !it.IsNDE() {
		t.Fatal("not flagged NDE")
	}
	seq, enc, err := SplitNDE(it)
	if err != nil {
		t.Fatal(err)
	}
	back, _ := event.Decode(event.KindInterrupt, enc)
	if seq != 99887 || !reflect.DeepEqual(ev, back) {
		t.Errorf("NDE round trip: seq=%d", seq)
	}
}

func TestFusedItemRoundTrip(t *testing.T) {
	fc := FusedCommit{LastSeq: 131, Count: 32, LastPC: 0x80000080, PCDigest: 0xDEAD}
	it := FusedItem(1, 0, fc)
	back, err := DecodeFused(it)
	if err != nil {
		t.Fatal(err)
	}
	if back != fc {
		t.Errorf("fused round trip: %+v vs %+v", back, fc)
	}
	if it.InstrCount() != 32 {
		t.Errorf("fused InstrCount = %d", it.InstrCount())
	}
}

func TestDiffRoundTripAllSnapshotKinds(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	kinds := []event.Kind{
		event.KindCSRState, event.KindArchIntRegState, event.KindArchVecRegState,
		event.KindVecCSRState, event.KindFpCSRState, event.KindHCSRState,
	}
	for _, k := range kinds {
		for trial := 0; trial < 50; trial++ {
			oldRaw := make([]byte, event.SizeOf(k))
			r.Read(oldRaw)
			prev, err := event.Decode(k, oldRaw)
			if err != nil {
				t.Fatal(err)
			}
			// Mutate a few words.
			newRaw := append([]byte(nil), event.EncodeValue(prev)...)
			for i := 0; i < r.Intn(4); i++ {
				w := r.Intn(len(newRaw) / 8)
				newRaw[w*8] ^= byte(1 + r.Intn(255))
			}
			cur, err := event.Decode(k, newRaw)
			if err != nil {
				t.Fatal(err)
			}
			it := DiffItem(0, 0, 4242, prev, cur)
			if n, err := ParseDiffLen(k, it.Payload); err != nil || n != len(it.Payload) {
				t.Fatalf("%v: ParseDiffLen = %d,%v want %d", k, n, err, len(it.Payload))
			}
			if got := AppendDiff(nil, 4242, event.EncodeValue(prev), event.EncodeValue(cur)); !reflect.DeepEqual(got, it.Payload) {
				t.Fatalf("%v: AppendDiff on the encodings differs from DiffItem", k)
			}
			tag, enc, err := ApplyDiff(nil, it, event.EncodeValue(prev))
			if err != nil {
				t.Fatalf("%v: %v", k, err)
			}
			back, _ := event.Decode(k, enc)
			if tag != 4242 {
				t.Fatalf("%v: diff tag = %d", k, tag)
			}
			if !reflect.DeepEqual(cur, back) {
				t.Fatalf("%v: diff round trip mismatch", k)
			}
		}
	}
}

func TestDiffSavesBytesWhenUnchanged(t *testing.T) {
	a := &event.CSRState{Mstatus: 0x1888, Mtvec: 0x80000100}
	b := &event.CSRState{Mstatus: 0x1888, Mtvec: 0x80000100, Minstret: 5}
	it := DiffItem(2, 1, 7, a, b)
	if len(it.Payload) >= event.SizeOf(event.KindCSRState) {
		t.Errorf("diff (%dB) not smaller than raw (%dB)", len(it.Payload), event.SizeOf(event.KindCSRState))
	}
	_, enc, err := ApplyDiff([]byte{0xEE}, it, event.EncodeValue(a))
	if err != nil || enc[0] != 0xEE {
		t.Fatal(err)
	}
	back, _ := event.Decode(event.KindCSRState, enc[1:])
	if !reflect.DeepEqual(b, back) {
		t.Error("completion mismatch")
	}
}

func TestFromRecordsSlots(t *testing.T) {
	recs := []event.Record{
		event.RecordOf(0, 0, &event.Interrupt{}),        // slot 0
		event.RecordOf(0, 0, &event.InstrCommit{PC: 1}), // slot 1
		event.RecordOf(0, 0, &event.Load{PAddr: 8}),     // slot 1
		event.RecordOf(0, 0, &event.InstrCommit{PC: 2}), // slot 2
		event.RecordOf(0, 1, &event.InstrCommit{PC: 3}), // core1 slot 1
		event.RecordOf(0, 0, &event.ArchIntRegState{}),  // core0 slot 2
	}
	// Note: core-interleaved input; slots are tracked per core.
	items := FromRecords(recs)
	wantSlots := []uint8{0, 1, 1, 2, 1, 2}
	for i, it := range items {
		if it.Slot != wantSlots[i] {
			t.Errorf("item %d slot = %d, want %d", i, it.Slot, wantSlots[i])
		}
	}
}

func TestSortKeyRestoresOrder(t *testing.T) {
	// A cycle's records in canonical order must be exactly re-sortable
	// from (core, slot, priority).
	recs := []event.Record{
		event.RecordOf(0, 0, &event.Interrupt{}),
		event.RecordOf(0, 0, &event.InstrCommit{PC: 1}),
		event.RecordOf(0, 0, &event.Load{PAddr: 8}),
		event.RecordOf(0, 0, &event.Refill{Addr: 64}),
		event.RecordOf(0, 0, &event.InstrCommit{PC: 2}),
		event.RecordOf(0, 0, &event.Store{Addr: 16}),
		event.RecordOf(0, 0, &event.ArchIntRegState{}),
		event.RecordOf(0, 0, &event.CSRState{}),
		event.RecordOf(0, 1, &event.InstrCommit{PC: 9}),
		event.RecordOf(0, 1, &event.ArchIntRegState{}),
	}
	items := FromRecords(recs)
	for i := 1; i < len(items); i++ {
		if items[i-1].SortKey() > items[i].SortKey() {
			t.Errorf("sort key not monotone at %d: %#x > %#x (kinds %v then %v)",
				i, items[i-1].SortKey(), items[i].SortKey(),
				kindOf(items[i-1]), kindOf(items[i]))
		}
	}
}

func kindOf(it Item) event.Kind { k, _ := it.Kind(); return k }

func TestPriorityCoversAllKinds(t *testing.T) {
	seen := map[uint8]event.Kind{}
	for k := event.Kind(0); k < event.NumKinds; k++ {
		p := Priority(k)
		if other, dup := seen[p]; dup {
			t.Errorf("kinds %v and %v share priority %d", other, k, p)
		}
		seen[p] = k
	}
}
