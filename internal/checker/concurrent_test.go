package checker_test

import (
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/checker"
	"repro/internal/dut"
	"repro/internal/event"
	"repro/internal/workload"
)

// runPerCoreConcurrent drives a multi-core DUT and checks each core from
// its own goroutine — the executed pipeline's consumer fan-out. Run under
// -race this proves the per-core independence contract of the checker.
func runPerCoreConcurrent(t *testing.T, cfg dut.Config, prof workload.Profile, hooks arch.Hooks) (*checker.Mismatch, uint64) {
	t.Helper()
	prog := workload.Generate(prof, cfg.Cores, 99)
	d := dut.New(cfg, prog.Image, prog.Entries, hooks)
	chk := checker.New(prog.Image, prog.Entries, cfg.Cores)

	var col checker.Collector
	chans := make([]chan event.Record, cfg.Cores)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Cores; i++ {
		ch := make(chan event.Record, 256)
		chans[i] = ch
		cc := chk.Cores[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			stopped := false
			for rec := range ch {
				if stopped {
					continue // drain after a mismatch, keep the router unblocked
				}
				if m := cc.Process(rec); m != nil {
					col.Offer(m)
					stopped = true
				}
			}
		}()
	}

	for cycle := uint64(0); cycle < 3_000_000; cycle++ {
		recs, done := d.StepCycle()
		for _, rec := range recs {
			// The checking goroutines outlive this cycle's arena.
			chans[rec.Core] <- rec.Clone()
		}
		if done || col.First() != nil {
			break
		}
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()

	_, code := chk.Finished()
	return col.First(), code
}

// TestConcurrentPerCoreCheckClean: a bug-free dual-core DUT checked by two
// concurrent per-core goroutines must report no mismatch — and no data race.
func TestConcurrentPerCoreCheckClean(t *testing.T) {
	m, code := runPerCoreConcurrent(t, dut.XiangShanDefaultDual(),
		scaled(workload.LinuxBoot(), 25_000), arch.Hooks{})
	if m != nil {
		t.Fatalf("spurious mismatch from concurrent checking: %v", m)
	}
	if code != 0 {
		t.Fatalf("bad trap code %d", code)
	}
}

// TestConcurrentPerCoreDetectsBug: the concurrent consumer must catch the
// same class of divergence the sequential lockstep path catches.
func TestConcurrentPerCoreDetectsBug(t *testing.T) {
	count := 0
	hooks := arch.Hooks{AfterExec: func(m *arch.Machine, ex *arch.Exec) {
		if ex.IsLoad && !ex.MMIO && ex.WroteInt {
			count++
			if count == 500 {
				m.State.GPR[ex.Wdest] ^= 0x10
				ex.Wdata ^= 0x10
				ex.MemData ^= 0x10
			}
		}
	}}
	m, _ := runPerCoreConcurrent(t, dut.XiangShanDefault(),
		scaled(workload.LinuxBoot(), 50_000), hooks)
	if m == nil {
		t.Fatal("injected bug was not detected by the concurrent consumer")
	}

	seq, _, _ := runLockstep(t, dut.XiangShanDefault(), scaled(workload.LinuxBoot(), 50_000), arch.Hooks{
		AfterExec: func() func(*arch.Machine, *arch.Exec) {
			n := 0
			return func(m *arch.Machine, ex *arch.Exec) {
				if ex.IsLoad && !ex.MMIO && ex.WroteInt {
					n++
					if n == 500 {
						m.State.GPR[ex.Wdest] ^= 0x10
						ex.Wdata ^= 0x10
						ex.MemData ^= 0x10
					}
				}
			}
		}(),
	}, 3_000_000)
	if seq == nil {
		t.Fatal("sequential reference run did not detect the bug")
	}
	if m.Core != seq.Core || m.Kind != seq.Kind || m.PC != seq.PC {
		t.Errorf("concurrent mismatch %v differs from sequential %v", m, seq)
	}
}

// TestCollectorPicksEarliest: concurrent offers must resolve to the lowest
// (Seq, Core) mismatch regardless of arrival order.
func TestCollectorPicksEarliest(t *testing.T) {
	var col checker.Collector
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			col.Offer(&checker.Mismatch{Core: uint8(i), Seq: uint64(100 - i), Detail: "x"})
			col.Offer(nil)
		}()
	}
	wg.Wait()
	first := col.First()
	if first == nil || first.Seq != 93 || first.Core != 7 {
		t.Fatalf("winner = %+v, want Seq=93 Core=7", first)
	}
	if col.Count() != 8 {
		t.Errorf("Count = %d, want 8", col.Count())
	}
}
