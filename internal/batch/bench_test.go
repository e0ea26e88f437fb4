package batch

import (
	"math/rand"
	"testing"

	"repro/internal/event"
	"repro/internal/wire"
)

// benchCycles builds n representative monitor cycles: a commit burst with
// the memory and bookkeeping events a XiangShan-class core emits alongside.
func benchCycles(n int) [][]wire.Item {
	r := rand.New(rand.NewSource(7))
	cycles := make([][]wire.Item, n)
	for i := range cycles {
		var recs []event.Record
		commits := 1 + r.Intn(4)
		for c := 0; c < commits; c++ {
			recs = append(recs, event.RecordOf(0, 0, &event.InstrCommit{
				PC: 0x80000000 + uint64(i*16+c*4), Instr: 0x13, Flags: event.CommitRfWen,
				Wdest: uint8(r.Intn(32)), Wdata: r.Uint64(),
			}))
			if r.Intn(3) == 0 {
				recs = append(recs, event.RecordOf(0, 0, &event.Load{
					PAddr: r.Uint64(), Data: r.Uint64(), OpType: 3,
				}))
			}
			if r.Intn(4) == 0 {
				recs = append(recs, event.RecordOf(0, 0, &event.Store{
					Addr: r.Uint64(), Data: r.Uint64(), Mask: 0xFF,
				}))
			}
		}
		if r.Intn(8) == 0 {
			recs = append(recs, event.RecordOf(0, 0, &event.L1TLB{VPN: r.Uint64(), PPN: r.Uint64()}))
		}
		cycles[i] = wire.FromRecords(recs)
	}
	return cycles
}

// packCycle returns one steady-state AddCycle, closed packets released back
// to the buffer pool: the op BenchmarkBatchPack times and
// TestAllocBudgetBatchPack pins. One pass over the cycles first warms the
// pool and the packer's scratch.
func packCycle() func() {
	cycles := benchCycles(256)
	p := NewPacker(4096)
	i := 0
	op := func() {
		for _, pkt := range p.AddCycle(cycles[i%len(cycles)]) {
			pkt.Release()
		}
		i++
	}
	for range cycles {
		op()
	}
	return op
}

// unpackPacket returns one steady-state AddPacket over a recorded stream:
// the op BenchmarkBatchUnpack times and TestAllocBudgetBatchUnpack pins. One
// pass over the packets first grows the unpacker's reused slices.
func unpackPacket(tb testing.TB) func() {
	cycles := benchCycles(256)
	p := NewPacker(4096)
	var pkts []Packet
	for _, c := range cycles {
		pkts = append(pkts, p.AddCycle(c)...)
	}
	pkts = append(pkts, p.Flush()...)
	var u Unpacker
	i := 0
	op := func() {
		if _, err := u.AddPacket(pkts[i%len(pkts)].Buf); err != nil {
			tb.Fatal(err)
		}
		i++
	}
	for range pkts {
		op()
	}
	return op
}

func BenchmarkBatchPack(b *testing.B) {
	op := packCycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkBatchUnpack(b *testing.B) {
	op := unpackPacket(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func TestAllocBudgetBatchPack(t *testing.T) {
	if n := testing.AllocsPerRun(1000, packCycle()); n > 0 {
		t.Fatalf("batch pack allocates %.0f/op, budget 0", n)
	}
}

// TestAllocBudgetBatchUnpack: steady-state unpacking allocates at most the
// one payload arena per packet. Payloads must outlive the packet buffer and
// the next call (pending cycle groups span packets, and fan-out consumers
// read them asynchronously), so the arena stays; the item slice, the sort
// and the pending group are reused.
func TestAllocBudgetBatchUnpack(t *testing.T) {
	if n := testing.AllocsPerRun(1000, unpackPacket(t)); n > 1 {
		t.Fatalf("batch unpack allocates %.0f/op, budget 1", n)
	}
}
