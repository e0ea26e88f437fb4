package ref_test

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/ref"
)

func image(t *testing.T, prog []isa.Inst) *mem.Memory {
	t.Helper()
	img := mem.New()
	addr := mem.RAMBase
	for _, in := range prog {
		img.Write(addr, 4, uint64(isa.MustEncode(in)))
		addr += 4
	}
	return img
}

func counting(n int) []isa.Inst {
	prog := make([]isa.Inst, 0, n)
	for i := 0; i < n; i++ {
		prog = append(prog, isa.Inst{Op: isa.OpADDI, Rd: 1, Rs1: 1, Imm: 1})
	}
	return prog
}

func TestRefDoesNotMutateImage(t *testing.T) {
	img := image(t, []isa.Inst{{Op: isa.OpSD, Rs1: 0, Rs2: 0, Imm: 0}})
	r := ref.New(img)
	r.M.State.GPR[2] = mem.RAMBase + 0x1000
	r.Step()
	if img.Read(mem.RAMBase, 4) == 0 {
		t.Error("image corrupted: REF must execute on a clone")
	}
}

func TestCheckpointRevert(t *testing.T) {
	r := ref.New(image(t, counting(100)))
	for i := 0; i < 30; i++ {
		r.Step()
	}
	if n := r.LogLen(); n != 0 {
		t.Errorf("%d compensation entries logged before the first Checkpoint; no Mark could revert them", n)
	}
	mk := r.Checkpoint()
	wantX1 := r.M.State.GPR[1]
	for i := 0; i < 40; i++ {
		r.Step()
	}
	if r.M.State.GPR[1] == wantX1 {
		t.Fatal("no progress after checkpoint")
	}
	r.Revert(mk)
	if got := r.M.State.GPR[1]; got != wantX1 {
		t.Errorf("x1 after revert = %d, want %d", got, wantX1)
	}
	if r.InstrRet() != 30 {
		t.Errorf("instret after revert = %d, want 30", r.InstrRet())
	}
	// Execution resumes identically.
	r.Step()
	if r.M.State.GPR[1] != wantX1+1 {
		t.Error("resumed execution diverged")
	}
}

func TestTrimBeforeKeepsLaterMarks(t *testing.T) {
	r := ref.New(image(t, counting(200)))
	for i := 0; i < 50; i++ {
		r.Step()
	}
	mk1 := r.Checkpoint()
	r.TrimBefore(mk1)
	for i := 0; i < 50; i++ {
		r.Step()
	}
	mk2 := r.Checkpoint()
	r.TrimBefore(mk2)
	for i := 0; i < 50; i++ {
		r.Step()
	}
	r.Revert(mk2)
	if r.InstrRet() != 100 {
		t.Errorf("instret after trimmed revert = %d, want 100", r.InstrRet())
	}
	if r.M.State.GPR[1] != 100 {
		t.Errorf("x1 = %d, want 100", r.M.State.GPR[1])
	}
}

func TestTrimBoundsLogGrowth(t *testing.T) {
	r := ref.New(image(t, counting(1000)))
	maxLen := 0
	for i := 0; i < 900; i++ {
		r.Step()
		if i%50 == 0 {
			mk := r.Checkpoint()
			r.TrimBefore(mk)
		}
		if l := r.LogLen(); l > maxLen {
			maxLen = l
		}
	}
	if maxLen > 400 {
		t.Errorf("compensation log grew to %d entries despite trimming", maxLen)
	}
}

func TestSnapshotRestore(t *testing.T) {
	prog := append(counting(20),
		isa.Inst{Op: isa.OpSD, Rs1: 31, Rs2: 1, Imm: 0})
	r := ref.New(image(t, prog))
	r.M.State.GPR[31] = mem.RAMBase + 0x2000
	for i := 0; i < 10; i++ {
		r.Step()
	}
	snap := r.TakeSnapshot()
	for i := 0; i < 11; i++ {
		r.Step()
	}
	if r.M.Mem.Read(mem.RAMBase+0x2000, 8) != 20 {
		t.Fatalf("store missing: %d", r.M.Mem.Read(mem.RAMBase+0x2000, 8))
	}
	r.RestoreSnapshot(snap)
	if r.InstrRet() != 10 || r.M.State.GPR[1] != 10 {
		t.Errorf("restore: instret=%d x1=%d", r.InstrRet(), r.M.State.GPR[1])
	}
	if r.M.Mem.Read(mem.RAMBase+0x2000, 8) != 0 {
		t.Error("restored memory still has post-snapshot store")
	}
}

func TestSkipSynchronizesMMIOResult(t *testing.T) {
	r := ref.New(image(t, counting(5)))
	pc := r.PC()
	r.Skip(true, 7, 0x1234)
	if r.M.State.GPR[7] != 0x1234 || r.PC() != pc+4 || r.InstrRet() != 1 {
		t.Errorf("skip: x7=%#x pc=%#x ret=%d", r.M.State.GPR[7], r.PC(), r.InstrRet())
	}
}

func TestTakeInterruptMatchesMachineSemantics(t *testing.T) {
	r := ref.New(image(t, counting(5)))
	r.M.SetCSRAddr(isa.CSRMtvec, mem.RAMBase+0x80)
	r.TakeInterrupt(isa.IntExternalM)
	if r.PC() != mem.RAMBase+0x80 {
		t.Errorf("pc = %#x", r.PC())
	}
	if r.M.State.CSRVal(isa.CSRMcause) != isa.IntExternalM|isa.InterruptBit {
		t.Errorf("mcause = %#x", r.M.State.CSRVal(isa.CSRMcause))
	}
}
