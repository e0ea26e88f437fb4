package squash

import (
	"testing"

	"repro/internal/checker"
	"repro/internal/event"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/wire"
)

// desqHarness builds a fuser+desquasher pair over a straight-line counting
// program, so fused windows step the reference model deterministically.
func desqHarness(t *testing.T, instrs int) (*Fuser, *Desquasher, *checker.Checker) {
	t.Helper()
	img := mem.New()
	addr := mem.RAMBase
	for i := 0; i < instrs; i++ {
		img.Write(addr, 4, uint64(isa.MustEncode(isa.Inst{Op: isa.OpADDI, Rd: 1, Rs1: 1, Imm: 1})))
		addr += 4
	}
	chk := checker.New(img, []uint64{mem.RAMBase}, 1)
	var enabled [event.NumKinds]bool
	for i := range enabled {
		enabled[i] = true
	}
	f := NewFuser(Config{MaxFuse: 4, StateFlushAge: 1000}, 0)
	return f, NewDesquasher(chk, enabled), chk
}

// feed runs records through the fuser and desquasher, returning the first
// mismatch.
func feed(t *testing.T, f *Fuser, d *Desquasher, cycles [][]event.Record) *checker.Mismatch {
	t.Helper()
	tok := uint64(0)
	for _, recs := range cycles {
		toks := make([]uint64, len(recs))
		for i := range toks {
			toks[i] = tok
			tok++
		}
		for _, it := range f.Cycle(recs, toks) {
			if m := d.Process(it); m != nil {
				return m
			}
		}
	}
	for _, it := range f.Flush() {
		if m := d.Process(it); m != nil {
			return m
		}
	}
	return d.Flush()
}

func countingCommit(seq uint64) event.Record {
	return event.RecordOf(seq, 0, countingCommitEvent(seq))
}

func countingCommitEvent(seq uint64) *event.InstrCommit {
	return &event.InstrCommit{
		PC:    mem.RAMBase + (seq-1)*4,
		Instr: isa.MustEncode(isa.Inst{Op: isa.OpADDI, Rd: 1, Rs1: 1, Imm: 1}),
		Flags: event.CommitRfWen, Wdest: 1, Wdata: seq,
	}
}

func TestFusedWindowStepsREF(t *testing.T) {
	f, d, chk := desqHarness(t, 64)
	var cycles [][]event.Record
	for s := uint64(1); s <= 8; s += 2 {
		cycles = append(cycles, []event.Record{countingCommit(s), countingCommit(s + 1)})
	}
	if m := feed(t, f, d, cycles); m != nil {
		t.Fatalf("clean fused stream mismatched: %v", m)
	}
	if got := chk.Cores[0].InstrRet(); got != 8 {
		t.Errorf("REF stepped %d instructions, want 8", got)
	}
	if chk.Cores[0].Ref.M.State.GPR[1] != 8 {
		t.Errorf("x1 = %d", chk.Cores[0].Ref.M.State.GPR[1])
	}
}

func TestFusedDetectsWrongPCDigest(t *testing.T) {
	f, d, _ := desqHarness(t, 64)
	ev := countingCommitEvent(2)
	ev.PC += 4 // DUT claims a different PC
	bad := event.RecordOf(2, 0, ev)
	m := feed(t, f, d, [][]event.Record{{countingCommit(1), bad, countingCommit(3), countingCommit(4)}})
	if m == nil || !m.Fused {
		t.Fatalf("PC digest divergence not flagged as fused mismatch: %v", m)
	}
}

func TestFusedDetectsWrongWDigest(t *testing.T) {
	f, d, _ := desqHarness(t, 64)
	ev := countingCommitEvent(3)
	ev.Wdata ^= 8
	bad := event.RecordOf(3, 0, ev)
	m := feed(t, f, d, [][]event.Record{{countingCommit(1), countingCommit(2), bad, countingCommit(4)}})
	if m == nil || !m.Fused {
		t.Fatalf("writeback digest divergence not flagged: %v", m)
	}
}

func TestDigestCountMismatch(t *testing.T) {
	f, d, _ := desqHarness(t, 64)
	// Inject an extra derivable event the REF will not reproduce.
	extra := event.RecordOf(2, 0, &event.Load{PAddr: 0x1000, Data: 1})
	m := feed(t, f, d, [][]event.Record{
		{countingCommit(1), countingCommit(2), extra, countingCommit(3), countingCommit(4)},
	})
	if m == nil || !m.Fused {
		t.Fatalf("digest count divergence not flagged: %v", m)
	}
}

func TestLateStateDiffIsSkippedNotFatal(t *testing.T) {
	f, d, _ := desqHarness(t, 64)
	// A snapshot whose tag is far behind the REF position by the time it is
	// received (possible around end-of-run flushes): completed, counted,
	// not compared.
	var cycles [][]event.Record
	for s := uint64(1); s <= 8; s++ {
		cycles = append(cycles, []event.Record{countingCommit(s)})
	}
	if m := feed(t, f, d, cycles); m != nil {
		t.Fatalf("setup mismatched: %v", m)
	}
	stale := wire.NDEItem(0, 0, 1, &event.ArchIntRegState{}) // tag 1 << InstrRet 8
	if m := d.Process(stale); m != nil {
		t.Fatalf("late state check was fatal: %v", m)
	}
	if got := d.LateSkipped; got != 1 {
		t.Errorf("LateSkipped = %d, want 1", got)
	}
}

func TestLastWindowTracked(t *testing.T) {
	f, d, _ := desqHarness(t, 64)
	if m := feed(t, f, d, [][]event.Record{
		{countingCommit(1), countingCommit(2), countingCommit(3), countingCommit(4)},
	}); m != nil {
		t.Fatalf("mismatch: %v", m)
	}
	if fc := d.LastWindow(0); fc.Count != 4 || fc.LastSeq != 4 {
		t.Errorf("last window = %+v", fc)
	}
}

func TestOnWindowCallbackFires(t *testing.T) {
	f, d, _ := desqHarness(t, 64)
	var got []uint64
	d.OnWindow = func(core uint8, fc wire.FusedCommit) {
		got = append(got, fc.LastSeq)
	}
	var cycles [][]event.Record
	for s := uint64(1); s <= 8; s += 2 {
		cycles = append(cycles, []event.Record{countingCommit(s), countingCommit(s + 1)})
	}
	if m := feed(t, f, d, cycles); m != nil {
		t.Fatalf("mismatch: %v", m)
	}
	if len(got) != 2 || got[0] != 4 || got[1] != 8 {
		t.Errorf("OnWindow seqs = %v", got)
	}
}
