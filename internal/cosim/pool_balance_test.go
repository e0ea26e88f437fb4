package cosim

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/batch"
	"repro/internal/checker"
	"repro/internal/comm"
	"repro/internal/dut"
	"repro/internal/event"
	"repro/internal/platform"
	"repro/internal/wire"
	"repro/internal/workload"
)

// injectBit flips one GPR bit after the n-th write to x5, so the run
// mismatches mid-stream — while the transport loop still holds packed
// packets it has not sent yet.
func injectBit(n int) arch.Hooks {
	count := 0
	return arch.Hooks{AfterExec: func(m *arch.Machine, ex *arch.Exec) {
		if ex.WroteInt && !ex.MMIO && ex.Wdest == 5 {
			count++
			if count == n {
				m.State.GPR[5] ^= 0x4
				ex.Wdata ^= 0x4
			}
		}
	}}
}

// TestTransportStopReleasesRemainingPackets drives the hardware-side
// producer and the software half directly into the leaked state: a
// multi-packet burst whose first packet's check mismatches. Every packet
// after the stop was packed (owning a pooled buffer) but never sent; the
// stop path must release them all, and the modeled link must not have been
// charged for them.
//
// The unpacker holds a cycle group until a newer cycle tag proves it
// complete, so the mismatch can only surface mid-burst if the burst's first
// packet crosses a cycle boundary. The test arranges exactly that: a small
// bogus cycle primes the open packet (no packet emitted), then a large
// second cycle fills many packets. Packet 0 carries the bogus cycle plus
// the start of the next one; its newer tag releases the bogus group, the
// check diverges, and the rest of the burst is still queued at the stop.
func TestTransportStopReleasesRemainingPackets(t *testing.T) {
	prog := workload.Generate(scaled(workload.LinuxBoot(), 1_000), 1, 1)
	plat := platform.Palladium()
	p := Params{DUT: dut.XiangShanDefault(), Platform: plat}
	opt := Options{Batch: true}
	r := &runner{
		p:    p,
		opt:  opt,
		half: newCheckerSession(opt, p.DUT, checker.New(prog.Image, prog.Entries, 1)),
		link: comm.NewLink(plat, plat.DUTOnlyHz(p.DUT.GatesM), false),
		res:  &Result{},
	}
	r.packer = batch.NewPacker(batch.MinPacketBytes)
	prod := &hwProducer{r: r, finished: true} // pre-packed bursts only; never step a DUT
	sink := r.half

	bogus := func(n, base int) []event.Record {
		var recs []event.Record
		for i := 0; i < n; i++ {
			recs = append(recs, event.RecordOf(uint64(base+i), 0, &event.InstrCommit{
				PC: 0xdead0000 + uint64(base+i)*4, Instr: 0x13, Wdest: 5, Wdata: uint64(i),
			}))
		}
		return recs
	}

	gets0, puts0 := event.PoolStats()
	// Cycle 1: three bogus commits — too small to close a packet, so they
	// sit in the packer's open packet and nothing is queued yet.
	if err := prod.pack(wire.FromRecords(bogus(3, 0)), false); err != nil {
		t.Fatalf("pack (priming cycle): %v", err)
	}
	if len(prod.pending) != 0 {
		t.Fatal("priming cycle emitted a packet; test setup is wrong")
	}
	// Cycle 2: enough commits to fill several minimum-size packets behind
	// the mismatch.
	if err := prod.pack(wire.FromRecords(bogus(400, 3)), true); err != nil {
		t.Fatalf("pack: %v", err)
	}
	consumed := uint64(0)
	err := prod.runInline(func(x xfer) (bool, error) {
		consumed++
		return sink.transfer(x)
	})
	if err != nil {
		t.Fatalf("drive: %v", err)
	}
	stranded := len(prod.pending)
	prod.releasePending()
	fin, err := sink.finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	if fin.Mismatch == nil {
		t.Fatal("bogus commits did not stop the run; the abort path was never exercised")
	}
	gets1, puts1 := event.PoolStats()
	gets, puts := gets1-gets0, puts1-puts0
	t.Logf("pool traffic across aborted burst: %d gets, %d puts; %d transfer(s) consumed, %d stranded",
		gets, puts, consumed, stranded)
	if gets < 3 || stranded == 0 {
		t.Fatalf("burst packed %d packet(s), %d stranded; need >= 3 with some behind the stop", gets, stranded)
	}
	if gets != puts {
		t.Fatalf("stop path leaked %d of %d packet buffer(s)", int64(gets)-int64(puts), gets)
	}
	if r.link.Invokes != consumed {
		t.Fatalf("link charged %d transfer(s), %d consumed: stranded packets must never be charged",
			r.link.Invokes, consumed)
	}
}

// TestMismatchAbortReleasesPacketBuffers is the regression test for the
// transport-loop leak caught by the poolcheck/useafterrelease review: when a
// run stops at the first divergence, the packets that were packed but never
// handed to the software side must still return their pooled buffers. The
// pool's get/put counters must balance across the whole run — this fails if
// any early-exit path of the driver drops a packet without Release.
func TestMismatchAbortReleasesPacketBuffers(t *testing.T) {
	cases := []struct {
		name string
		opt  Options
	}{
		{"EB", Options{Batch: true}},
		{"EBIN", Options{Batch: true, NonBlocking: true}},
		{"EBINSD", Options{Batch: true, NonBlocking: true, Squash: true}},
		{"EB-fixed", Options{Batch: true, FixedOffset: true}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// Minimum-size packets force multi-packet bursts, so the
			// mismatch reliably lands while later packets are still queued
			// in the transport loop — the exact leaked state.
			plat := platform.Palladium()
			plat.PacketBytes = batch.MinPacketBytes
			gets0, puts0 := event.PoolStats()
			res := run(t, Params{
				DUT: dut.XiangShanDefault(), Platform: plat,
				Opt: tc.opt, Workload: scaled(workload.LinuxBoot(), 60_000),
				Seed: 3, Hooks: injectBit(500),
			})
			if res.Mismatch == nil {
				t.Fatal("injected bug not detected; the abort path was never exercised")
			}
			gets1, puts1 := event.PoolStats()
			gets, puts := gets1-gets0, puts1-puts0
			if gets != puts {
				t.Fatalf("pool imbalance after mismatch abort: %d GetBuf vs %d PutBuf (%d buffer(s) leaked)",
					gets, puts, int64(gets)-int64(puts))
			}
		})
	}
}
