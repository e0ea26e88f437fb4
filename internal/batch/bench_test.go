package batch

import (
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
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

// BenchmarkBatchPack measures steady-state packing: one AddCycle per op,
// closed packets released back to the buffer pool. This is the ≥10x
// allocs/op headline number the ISSUE records in DESIGN.md.
func BenchmarkBatchPack(b *testing.B) {
	cycles := benchCycles(256)
	p := NewPacker(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pkt := range p.AddCycle(cycles[i%len(cycles)]) {
			pkt.Release()
		}
	}
}

// BenchmarkBatchUnpack measures meta-guided unpacking with per-packet
// payload arenas, releasing each packet buffer after parse.
func BenchmarkBatchUnpack(b *testing.B) {
	cycles := benchCycles(256)
	p := NewPacker(4096)
	var pkts []Packet
	for _, c := range cycles {
		pkts = append(pkts, p.AddCycle(c)...)
	}
	pkts = append(pkts, p.Flush()...)
	var u Unpacker
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := u.AddPacket(pkts[i%len(pkts)].Buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAllocBudgetBatchPack enforces the checked-in allocs/op ceiling for
// steady-state packing (see testdata/alloc_budget.txt; the pre-refactor
// packer spent 14 allocs/op on this workload).
func TestAllocBudgetBatchPack(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "alloc_budget.txt"))
	if err != nil {
		t.Fatalf("alloc budget missing: %v", err)
	}
	budget, err := strconv.ParseFloat(strings.TrimSpace(string(data)), 64)
	if err != nil {
		t.Fatal(err)
	}

	cycles := benchCycles(256)
	p := NewPacker(4096)
	// Warm the buffer pool and the packer's scratch to measure steady state.
	for _, c := range cycles {
		for _, pkt := range p.AddCycle(c) {
			pkt.Release()
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		for _, pkt := range p.AddCycle(cycles[i%len(cycles)]) {
			pkt.Release()
		}
		i++
	})
	if allocs > budget {
		t.Fatalf("batch pack allocates %.2f/op, budget %s (testdata/alloc_budget.txt)",
			allocs, strings.TrimSpace(string(data)))
	}
}

// TestAllocBudgetBatchUnpack: steady-state unpacking allocates at most the
// one payload arena per packet. Payloads must outlive the packet buffer and
// the next call (pending cycle groups span packets, and fan-out consumers
// read them asynchronously), so the arena stays; the item slice, the sort
// and the pending group are reused.
func TestAllocBudgetBatchUnpack(t *testing.T) {
	const budget = 1.0
	cycles := benchCycles(256)
	p := NewPacker(4096)
	var pkts []Packet
	for _, c := range cycles {
		pkts = append(pkts, p.AddCycle(c)...)
	}
	pkts = append(pkts, p.Flush()...)
	var u Unpacker
	for _, pkt := range pkts { // warm-up: grow the reused slices
		if _, err := u.AddPacket(pkt.Buf); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := u.AddPacket(pkts[i%len(pkts)].Buf); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > budget {
		t.Fatalf("batch unpack allocates %.2f/op, budget %.0f", allocs, budget)
	}
}
