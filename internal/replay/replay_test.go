package replay

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/event"
)

func rec(core uint8, seq uint64) event.Record {
	return event.RecordOf(seq, core, &event.InstrCommit{PC: seq * 4})
}

func TestBufferTokensAndRange(t *testing.T) {
	b := NewBuffer(100)
	tok0 := b.Add([]event.Record{rec(0, 1), rec(1, 1), rec(0, 2)})
	if tok0 != 0 || b.NextToken() != 3 {
		t.Fatalf("tokens: start=%d next=%d", tok0, b.NextToken())
	}
	tok1 := b.Add([]event.Record{rec(0, 3)})
	if tok1 != 3 {
		t.Fatalf("second start token = %d", tok1)
	}
	got, err := b.Range(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Seq != 2 || got[1].Seq != 3 {
		t.Errorf("range = %v", got)
	}
}

func TestBufferEviction(t *testing.T) {
	b := NewBuffer(64)
	for i := 0; i < 100; i++ {
		b.Add([]event.Record{rec(0, uint64(i))})
	}
	if b.Len() > 64+16 {
		t.Errorf("buffer over capacity: %d", b.Len())
	}
	if _, err := b.Range(0, 0); err == nil {
		t.Error("evicted token still readable")
	}
	if _, err := b.Range(0, b.NextToken()-1); err != nil {
		t.Errorf("recent token unreadable: %v", err)
	}
}

func TestBufferBytesAccounting(t *testing.T) {
	b := NewBuffer(1000)
	b.Add([]event.Record{rec(0, 1)})
	want := uint64(event.SizeOf(event.KindInstrCommit))
	if got := b.BufferedBytes(); got != want {
		t.Errorf("bytes = %d, want %d", got, want)
	}
}

// TestBufferRingMatchesModel drives the byte ring through growth,
// wrap-around and eviction with records of every size and checks each
// Range against a plain slice model of the same eviction rule.
func TestBufferRingMatchesModel(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	b := NewBuffer(500)
	var model []event.Record // model[i] has token first+i
	first := uint64(0)
	scratch := make([]event.Record, 0, 16)
	for cycle := 0; cycle < 3000; cycle++ {
		scratch = scratch[:0]
		for i := r.Intn(12); i > 0; i-- {
			k := event.Kind(r.Intn(int(event.NumKinds)))
			data := make([]byte, event.SizeOf(k))
			r.Read(data)
			scratch = append(scratch, event.Record{Seq: uint64(cycle), Core: uint8(r.Intn(2)), Kind: k, Data: data})
		}
		if tok := b.Add(scratch); tok != first+uint64(len(model)) {
			t.Fatalf("cycle %d: start token %d, want %d", cycle, tok, first+uint64(len(model)))
		}
		for _, rec := range scratch {
			model = append(model, rec.Clone())
			rec.Data[0] ^= 0xFF // the buffer copied; the caller may reuse
		}
		if over := len(model) - b.Cap; over >= b.Cap/4 {
			model, first = model[over:], first+uint64(over)
		}
		var bytes uint64
		for _, rec := range model {
			bytes += uint64(len(rec.Data))
		}
		if b.Len() != len(model) || b.BufferedBytes() != bytes {
			t.Fatalf("cycle %d: %d records %dB, model %d records %dB", cycle, b.Len(), b.BufferedBytes(), len(model), bytes)
		}
		if cycle%97 != 0 || len(model) == 0 {
			continue
		}
		from := first + uint64(r.Intn(len(model)))
		for core := uint8(0); core < 2; core++ {
			got, err := b.Range(core, from)
			if err != nil {
				t.Fatal(err)
			}
			var want []event.Record
			for _, rec := range model[from-first:] {
				if rec.Core == core {
					want = append(want, rec)
				}
			}
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("cycle %d: Range(%d, %d) = %d records, want %d", cycle, core, from, len(got), len(want))
			}
		}
	}
	if _, err := b.Range(0, first-1); err == nil {
		t.Error("evicted token still readable")
	}
}

// TestAllocBudgetBufferAdd: once the rings have grown to the window's size,
// buffering a cycle allocates nothing.
func TestAllocBudgetBufferAdd(t *testing.T) {
	b := NewBuffer(4096)
	cycle := []event.Record{
		event.RecordOf(1, 0, &event.InstrCommit{PC: 4}),
		event.RecordOf(1, 0, &event.ArchIntRegState{}),
		event.RecordOf(1, 0, &event.CSRState{}),
		event.RecordOf(1, 1, &event.Load{PAddr: 8}),
	}
	for i := 0; i < 4*b.Cap; i++ { // warm-up: grow both rings, evict
		b.Add(cycle)
	}
	if n := testing.AllocsPerRun(10_000, func() { b.Add(cycle) }); n != 0 {
		t.Errorf("Buffer.Add allocates %.3f/cycle once warm, budget 0", n)
	}
}
