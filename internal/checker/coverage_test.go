package checker_test

import (
	"testing"

	"repro/internal/checker"
	"repro/internal/event"
	"repro/internal/isa"
	"repro/internal/mem"
)

// TestCoverageKindCounts pins that every processed event lands in the
// per-kind counter, and consecutive plain commits land in the
// commit→commit interleaving-pair cell.
func TestCoverageKindCounts(t *testing.T) {
	chk := harness(t)
	chk.Process(commitRec(1, mem.RAMBase, 1, 5))
	st := &event.InstrCommit{PC: mem.RAMBase + 4, Instr: instrAt(mem.RAMBase + 4)}
	chk.Process(event.RecordOf(2, 0, st))

	cov := chk.Coverage()
	if got := cov.Kind[event.KindInstrCommit]; got != 2 {
		t.Errorf("Kind[InstrCommit] = %d, want 2", got)
	}
	if got := cov.Events(); got != 2 {
		t.Errorf("Events() = %d, want 2", got)
	}
	cell := checker.ClsCommit*checker.NumSyncClasses + checker.ClsCommit
	if got := cov.Pair[cell]; got != 2 {
		t.Errorf("Pair[commit→commit] = %d, want 2 (initial cursor is commit)", got)
	}
}

// TestCoverageTrapMMIOAdjacency pins the trap/MMIO adjacency stressor
// counter and the interrupt/MMIO proximity counters: a machine timer
// interrupt followed closely by a skipped (device) commit must raise all
// three signals.
func TestCoverageTrapMMIOAdjacency(t *testing.T) {
	chk := harness(t)
	irq := &event.Interrupt{PC: mem.RAMBase, Cause: isa.IntTimerM}
	if m := chk.Process(event.RecordOf(1, 0, irq)); m != nil {
		t.Fatalf("interrupt sync flagged: %v", m)
	}
	skip := &event.InstrCommit{PC: mem.RAMBase, Flags: event.CommitSkip}
	if m := chk.Process(event.RecordOf(2, 0, skip)); m != nil {
		t.Fatalf("skipped commit flagged: %v", m)
	}

	cov := chk.Coverage()
	if cov.TrapMMIOAdj != 1 {
		t.Errorf("TrapMMIOAdj = %d, want 1", cov.TrapMMIOAdj)
	}
	if got := cov.Prox[checker.ProxTimerIrq]; got != 1 {
		t.Errorf("Prox[TimerIrq] = %d, want 1", got)
	}
	if got := cov.Prox[checker.ProxMMIOSkip]; got != 1 {
		t.Errorf("Prox[MMIOSkip] = %d, want 1", got)
	}
	cell := checker.ClsInterrupt*checker.NumSyncClasses + checker.ClsMMIO
	if got := cov.Pair[cell]; got != 1 {
		t.Errorf("Pair[interrupt→mmio] = %d, want 1", got)
	}
}

// TestCoverageAdjacencyWindowExpires pins the window bound: an MMIO event
// arriving after more than adjWindow intervening events no longer counts as
// trap-adjacent.
func TestCoverageAdjacencyWindowExpires(t *testing.T) {
	chk := harness(t)
	irq := &event.Interrupt{PC: mem.RAMBase, Cause: isa.IntTimerM}
	if m := chk.Process(event.RecordOf(1, 0, irq)); m != nil {
		t.Fatalf("interrupt sync flagged: %v", m)
	}
	// Drain the window with informational events that carry no state.
	for i := 0; i < 10; i++ {
		chk.Process(event.RecordOf(uint64(2+i), 0, &event.CMO{}))
	}
	skip := &event.InstrCommit{PC: mem.RAMBase, Flags: event.CommitSkip}
	chk.Process(event.RecordOf(20, 0, skip))

	if cov := chk.Coverage(); cov.TrapMMIOAdj != 0 {
		t.Errorf("TrapMMIOAdj = %d after window expired, want 0", cov.TrapMMIOAdj)
	}
}

// TestCoverageExceptionProximity drives an ecall through the reference
// model and checks the exception-class proximity counters.
func TestCoverageExceptionProximity(t *testing.T) {
	img := mem.New()
	enc := isa.MustEncode(isa.Inst{Op: isa.OpECALL})
	img.Write(mem.RAMBase, 4, uint64(enc))
	chk := checker.New(img, []uint64{mem.RAMBase}, 1)

	ev := &event.InstrCommit{PC: mem.RAMBase, Instr: enc}
	if m := chk.Process(event.RecordOf(1, 0, ev)); m != nil {
		t.Fatalf("ecall commit flagged: %v", m)
	}
	cov := chk.Coverage()
	if got := cov.Prox[checker.ProxException]; got != 1 {
		t.Errorf("Prox[Exception] = %d, want 1", got)
	}
	if got := cov.Prox[checker.ProxEcall]; got != 1 {
		t.Errorf("Prox[Ecall] = %d, want 1", got)
	}
}

// TestCoverageAddMerges pins the merge arithmetic Coverage.Add and the
// multi-core merge in Checker.Coverage rely on.
func TestCoverageAddMerges(t *testing.T) {
	var a, b checker.Coverage
	a.Kind[event.KindInstrCommit] = 3
	a.Prox[checker.ProxAmo] = 1
	a.TrapMMIOAdj = 2
	b.Kind[event.KindInstrCommit] = 4
	b.Pair[5] = 7
	b.Prox[checker.ProxAmo] = 2

	a.Add(&b)
	if a.Kind[event.KindInstrCommit] != 7 || a.Pair[5] != 7 ||
		a.Prox[checker.ProxAmo] != 3 || a.TrapMMIOAdj != 2 {
		t.Errorf("merge wrong: kind=%d pair=%d prox=%d adj=%d",
			a.Kind[event.KindInstrCommit], a.Pair[5], a.Prox[checker.ProxAmo], a.TrapMMIOAdj)
	}
	if a.Events() != 7 {
		t.Errorf("Events() = %d, want 7", a.Events())
	}
}
