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

// TestAllocBudgetHardwareSide: the hardware side of a Squash run — DUT
// cycle, replay buffering, the per-core split and fusion — allocates
// nothing per cycle once the replay ring and the fusers' buffers have grown.
// Before the monitor emitted bytes this measured 18 allocs/cycle on one core
// and 36 on two. Stated ceiling: 0.01 allocs/cycle, which allows a rare late
// ring growth.
func TestAllocBudgetHardwareSide(t *testing.T) {
	const budget = 0.01
	for _, d := range []dut.Config{dut.XiangShanDefault(), dut.XiangShanDefaultDual()} {
		opt, _ := ParseConfig("EBINSD")
		r, err := newRunner(Params{
			DUT: d, Platform: platform.Palladium(), Opt: opt,
			Workload: scaled(workload.LinuxBoot(), 200_000), Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		step := func() {
			recs, done := r.d.StepCycle()
			if done {
				t.Fatal("workload ended inside the measured window")
			}
			r.hardwareSide(recs)
		}
		for i := 0; i < 30_000; i++ { // warm-up: fill and evict the replay ring once
			step()
		}
		if r.rbuf.Len() < r.rbuf.Cap {
			t.Fatalf("warm-up buffered only %d records", r.rbuf.Len())
		}
		if n := testing.AllocsPerRun(10_000, step); n > budget {
			t.Errorf("%s: hardware side allocates %.3f/cycle, budget %.2f", d.Name, n, budget)
		}
	}
}
