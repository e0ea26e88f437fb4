package cosim

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/batch"
	"repro/internal/checker"
	"repro/internal/dut"
	"repro/internal/event"
	"repro/internal/platform"
	"repro/internal/wire"
	"repro/internal/workload"
)

// TestAllocBudgetCheckerSessionPacket: the software half checks a recorded
// EBIN stream with at most one allocation per packet — the unpacker's
// payload arena. Decoding goes into per-core scratch, state snapshots are
// compared in wire space, and the REF steps without a heap Exec; before
// that the half spent several allocations per event.
func TestAllocBudgetCheckerSessionPacket(t *testing.T) {
	const budget = 1.0
	d := dut.XiangShanDefault()
	prog := workload.Generate(scaled(workload.LinuxBoot(), 6_000), d.Cores, 3)

	// Record the packets one clean run sends, as the wire carries them.
	hw := dut.New(d, prog.Image, prog.Entries, arch.Hooks{})
	packer := batch.NewPacker(platform.Palladium().PacketBytes)
	var pkts [][]byte
	keep := func(ps []batch.Packet) {
		for i := range ps {
			pkts = append(pkts, append([]byte(nil), ps[i].Buf[:ps[i].Used]...))
			ps[i].Release()
		}
	}
	for done := false; !done; {
		var recs []event.Record
		recs, done = hw.StepCycle()
		keep(packer.AddCycle(wire.FromRecords(recs)))
	}
	keep(packer.Flush())
	if len(pkts) < 200 {
		t.Fatalf("recorded only %d packets", len(pkts))
	}

	half := newCheckerSession(Options{Batch: true}, d, checker.New(prog.Image, prog.Entries, d.Cores))
	next := 0
	feed := func() {
		m, err := half.Packet(pkts[next])
		if m != nil || err != nil {
			t.Fatalf("packet %d: mismatch %v, err %v", next, m, err)
		}
		next++
	}
	for next < len(pkts)/2 { // warm-up: scratch values, buffers, REF pages
		feed()
	}
	allocs := testing.AllocsPerRun(len(pkts)-next-1, feed)
	if allocs > budget {
		t.Fatalf("CheckerSession.Packet allocates %.2f/packet, budget %.0f", allocs, budget)
	}
	if fin, err := half.Finish(); err != nil || fin.Mismatch != nil {
		t.Fatalf("clean stream: final %+v, err %v", fin, err)
	}
}
