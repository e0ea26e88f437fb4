package arch

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// asm writes a program (as decoded Insts) at addr and returns a machine with
// PC pointing at it.
func asm(t *testing.T, prog []isa.Inst) *Machine {
	t.Helper()
	ram := mem.New()
	addr := mem.RAMBase
	for _, in := range prog {
		w, err := isa.Encode(in)
		if err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		ram.Write(addr, 4, uint64(w))
		addr += 4
	}
	return NewMachine(ram)
}

func run(m *Machine, n int) []Exec {
	out := make([]Exec, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, m.Step())
	}
	return out
}

func TestALUBasics(t *testing.T) {
	m := asm(t, []isa.Inst{
		{Op: isa.OpADDI, Rd: 1, Rs1: 0, Imm: 5},
		{Op: isa.OpADDI, Rd: 2, Rs1: 0, Imm: 7},
		{Op: isa.OpADD, Rd: 3, Rs1: 1, Rs2: 2},
		{Op: isa.OpSUB, Rd: 4, Rs1: 1, Rs2: 2},
		{Op: isa.OpMUL, Rd: 5, Rs1: 1, Rs2: 2},
		{Op: isa.OpSLLI, Rd: 6, Rs1: 1, Imm: 60},
	})
	run(m, 6)
	s := &m.State
	if s.GPR[3] != 12 || int64(s.GPR[4]) != -2 || s.GPR[5] != 35 {
		t.Errorf("alu results: %d %d %d", s.GPR[3], int64(s.GPR[4]), s.GPR[5])
	}
	if s.GPR[6] != 5<<60 {
		t.Errorf("slli = %#x", s.GPR[6])
	}
}

func TestX0IsHardwired(t *testing.T) {
	m := asm(t, []isa.Inst{{Op: isa.OpADDI, Rd: 0, Rs1: 0, Imm: 99}})
	run(m, 1)
	if m.State.GPR[0] != 0 {
		t.Error("x0 was written")
	}
}

func TestBranchesAndJumps(t *testing.T) {
	m := asm(t, []isa.Inst{
		{Op: isa.OpADDI, Rd: 1, Rs1: 0, Imm: 1},
		{Op: isa.OpBEQ, Rs1: 1, Rs2: 0, Imm: 8}, // not taken
		{Op: isa.OpBNE, Rs1: 1, Rs2: 0, Imm: 8}, // taken, skips next
		{Op: isa.OpADDI, Rd: 2, Rs1: 0, Imm: 99},
		{Op: isa.OpJAL, Rd: 5, Imm: 8}, // skips next
		{Op: isa.OpADDI, Rd: 2, Rs1: 0, Imm: 98},
		{Op: isa.OpADDI, Rd: 3, Rs1: 0, Imm: 1},
	})
	run(m, 5)
	if m.State.GPR[2] != 0 {
		t.Errorf("branch/jump fell through: x2=%d", m.State.GPR[2])
	}
	if m.State.GPR[3] != 1 {
		t.Errorf("did not reach end: x3=%d", m.State.GPR[3])
	}
	if want := mem.RAMBase + 5*4; m.State.GPR[5] != want {
		t.Errorf("jal link = %#x, want %#x", m.State.GPR[5], want)
	}
}

func TestLoadStore(t *testing.T) {
	m := asm(t, []isa.Inst{
		{Op: isa.OpLUI, Rd: 1, Imm: 0x1000 << 12},         // arbitrary
		{Op: isa.OpADDI, Rd: 1, Rs1: 0, Imm: 0},           // x1=0
		{Op: isa.OpLUI, Rd: 2, Imm: int64(0x80001) << 12}, // x2=0x80001000
		{Op: isa.OpADDI, Rd: 3, Rs1: 0, Imm: -1},          // x3=-1
		{Op: isa.OpSD, Rs1: 2, Rs2: 3, Imm: 0},            // [x2]=-1
		{Op: isa.OpLW, Rd: 4, Rs1: 2, Imm: 0},             // sign extends
		{Op: isa.OpLWU, Rd: 5, Rs1: 2, Imm: 0},            // zero extends
		{Op: isa.OpLB, Rd: 6, Rs1: 2, Imm: 3},             // sign extends
		{Op: isa.OpSH, Rs1: 2, Rs2: 0, Imm: 0},            // clear low half
		{Op: isa.OpLHU, Rd: 7, Rs1: 2, Imm: 0},
	})
	exs := run(m, 10)
	s := &m.State
	if s.GPR[4] != ^uint64(0) {
		t.Errorf("lw = %#x", s.GPR[4])
	}
	if s.GPR[5] != 0xFFFFFFFF {
		t.Errorf("lwu = %#x", s.GPR[5])
	}
	if s.GPR[6] != ^uint64(0) {
		t.Errorf("lb = %#x", s.GPR[6])
	}
	if s.GPR[7] != 0 {
		t.Errorf("lhu after sh = %#x", s.GPR[7])
	}
	if !exs[4].Mem || exs[4].IsLoad || exs[4].MemAddr != 0x80001000 {
		t.Errorf("store exec record wrong: %+v", exs[4])
	}
	if !exs[5].Mem || !exs[5].IsLoad {
		t.Errorf("load exec record wrong: %+v", exs[5])
	}
}

func TestDivisionEdgeCases(t *testing.T) {
	m := asm(t, []isa.Inst{
		{Op: isa.OpADDI, Rd: 1, Rs1: 0, Imm: 10},
		{Op: isa.OpDIV, Rd: 2, Rs1: 1, Rs2: 0},  // div by zero = -1
		{Op: isa.OpREM, Rd: 3, Rs1: 1, Rs2: 0},  // rem by zero = a
		{Op: isa.OpDIVU, Rd: 4, Rs1: 1, Rs2: 0}, // = all ones
	})
	run(m, 4)
	s := &m.State
	if int64(s.GPR[2]) != -1 || s.GPR[3] != 10 || s.GPR[4] != ^uint64(0) {
		t.Errorf("div edge cases: %d %d %#x", int64(s.GPR[2]), s.GPR[3], s.GPR[4])
	}
}

func TestCSROps(t *testing.T) {
	m := asm(t, []isa.Inst{
		{Op: isa.OpADDI, Rd: 1, Rs1: 0, Imm: 0x5A},
		{Op: isa.OpCSRRW, Rd: 2, Rs1: 1, CSR: isa.CSRMscratch},
		{Op: isa.OpCSRRS, Rd: 3, Rs1: 0, CSR: isa.CSRMscratch},  // read only
		{Op: isa.OpCSRRSI, Rd: 4, Rs1: 5, CSR: isa.CSRMscratch}, // set bits 101
		{Op: isa.OpCSRRC, Rd: 5, Rs1: 1, CSR: isa.CSRMscratch},  // clear
	})
	run(m, 5)
	s := &m.State
	if s.GPR[2] != 0 || s.GPR[3] != 0x5A || s.GPR[4] != 0x5A {
		t.Errorf("csr reads: %#x %#x %#x", s.GPR[2], s.GPR[3], s.GPR[4])
	}
	if got := s.CSRVal(isa.CSRMscratch); got != (0x5A|5)&^0x5A {
		t.Errorf("mscratch = %#x", got)
	}
}

func TestEcallAndMret(t *testing.T) {
	// Trap handler at RAMBase+0x100: mepc += 4; mret.
	m := asm(t, []isa.Inst{
		{Op: isa.OpADDI, Rd: 1, Rs1: 0, Imm: 0x100},
		{Op: isa.OpLUI, Rd: 2, Imm: int64(0x80000) << 12},
		{Op: isa.OpADD, Rd: 1, Rs1: 1, Rs2: 2},
		{Op: isa.OpCSRRW, Rd: 0, Rs1: 1, CSR: isa.CSRMtvec},
		{Op: isa.OpECALL},
		{Op: isa.OpADDI, Rd: 10, Rs1: 0, Imm: 77}, // after return
	})
	handler := []isa.Inst{
		{Op: isa.OpCSRRS, Rd: 5, Rs1: 0, CSR: isa.CSRMepc},
		{Op: isa.OpADDI, Rd: 5, Rs1: 5, Imm: 4},
		{Op: isa.OpCSRRW, Rd: 0, Rs1: 5, CSR: isa.CSRMepc},
		{Op: isa.OpMRET},
	}
	addr := mem.RAMBase + 0x100
	for _, in := range handler {
		m.Mem.Write(addr, 4, uint64(isa.MustEncode(in)))
		addr += 4
	}
	exs := run(m, 10)
	if !exs[4].Exception || exs[4].Cause != isa.ExcEcallM {
		t.Fatalf("ecall not taken: %+v", exs[4])
	}
	if m.State.GPR[10] != 77 {
		t.Errorf("did not resume after mret: x10=%d pc=%#x", m.State.GPR[10], m.State.PC)
	}
	if got := m.State.CSRVal(isa.CSRMcause); got != isa.ExcEcallM {
		t.Errorf("mcause = %d", got)
	}
}

func TestInterruptFlow(t *testing.T) {
	m := asm(t, []isa.Inst{
		{Op: isa.OpADDI, Rd: 1, Rs1: 0, Imm: 1},
	})
	m.SetCSRAddr(isa.CSRMtvec, mem.RAMBase+0x40)
	m.SetCSRAddr(isa.CSRMstatus, mstatusMIE)
	m.SetCSRAddr(isa.CSRMie, 1<<isa.IntTimerM)
	m.SetCSRAddr(isa.CSRMip, 1<<isa.IntTimerM)
	cause, ok := m.InterruptPendingEnabled()
	if !ok || cause != isa.IntTimerM {
		t.Fatalf("interrupt not pending: %d %v", cause, ok)
	}
	pc := m.State.PC
	m.TakeInterrupt(cause)
	if m.State.PC != mem.RAMBase+0x40 {
		t.Errorf("pc after interrupt = %#x", m.State.PC)
	}
	if m.State.CSRVal(isa.CSRMepc) != pc {
		t.Errorf("mepc = %#x, want %#x", m.State.CSRVal(isa.CSRMepc), pc)
	}
	if m.State.CSRVal(isa.CSRMcause) != isa.IntTimerM|isa.InterruptBit {
		t.Errorf("mcause = %#x", m.State.CSRVal(isa.CSRMcause))
	}
	if m.InterruptsEnabled() {
		t.Error("MIE not cleared on trap entry")
	}
	if _, ok := m.InterruptPendingEnabled(); ok {
		t.Error("interrupt still deliverable with MIE clear")
	}
}

func TestAtomics(t *testing.T) {
	base := int64(0x80002000)
	m := asm(t, []isa.Inst{
		{Op: isa.OpLUI, Rd: 1, Imm: base},
		{Op: isa.OpADDI, Rd: 2, Rs1: 0, Imm: 9},
		{Op: isa.OpSD, Rs1: 1, Rs2: 2, Imm: 0},
		{Op: isa.OpLRD, Rd: 3, Rs1: 1},
		{Op: isa.OpSCD, Rd: 4, Rs1: 1, Rs2: 2}, // success (same addr)
		{Op: isa.OpSCD, Rd: 5, Rs1: 1, Rs2: 2}, // fail (reservation consumed)
		{Op: isa.OpAMOADDD, Rd: 6, Rs1: 1, Rs2: 2},
	})
	exs := run(m, 7)
	s := &m.State
	if s.GPR[3] != 9 {
		t.Errorf("lr.d = %d", s.GPR[3])
	}
	if s.GPR[4] != 0 {
		t.Errorf("sc.d success flag = %d, want 0", s.GPR[4])
	}
	if s.GPR[5] != 1 {
		t.Errorf("second sc.d = %d, want 1", s.GPR[5])
	}
	if s.GPR[6] != 9 || m.Mem.Read(uint64(base), 8) != 18 {
		t.Errorf("amoadd: old=%d mem=%d", s.GPR[6], m.Mem.Read(uint64(base), 8))
	}
	if !exs[3].LrSc || !exs[4].ScSuccess || exs[5].ScSuccess {
		t.Errorf("lr/sc exec records wrong")
	}
	if !exs[6].Atomic || exs[6].AtomicOld != 9 {
		t.Errorf("amo exec record: %+v", exs[6])
	}
}

func TestVectorOps(t *testing.T) {
	base := int64(0x80003000)
	m := asm(t, []isa.Inst{
		{Op: isa.OpVSETVLI, Rd: 1, Rs1: 0, Imm: 0xD1},
		{Op: isa.OpADDI, Rd: 2, Rs1: 0, Imm: 3},
		{Op: isa.OpVMVVX, Rd: 1, Rs1: 2},          // v1 = {3,3,3,3}
		{Op: isa.OpVADDVV, Rd: 2, Rs1: 1, Rs2: 1}, // v2 = {6,...}
		{Op: isa.OpVXORVV, Rd: 3, Rs1: 2, Rs2: 1}, // v3 = {5,...}
		{Op: isa.OpLUI, Rd: 3, Imm: base},
		{Op: isa.OpVSE, Rs1: 3, Rs2: 2}, // store v2
		{Op: isa.OpVLE, Rd: 4, Rs1: 3},  // load into v4
	})
	run(m, 8)
	s := &m.State
	if s.CSRVal(isa.CSRVl) != 4 {
		t.Errorf("vl = %d", s.CSRVal(isa.CSRVl))
	}
	if s.VReg[2] != [4]uint64{6, 6, 6, 6} {
		t.Errorf("vadd = %v", s.VReg[2])
	}
	if s.VReg[3] != [4]uint64{5, 5, 5, 5} {
		t.Errorf("vxor = %v", s.VReg[3])
	}
	if s.VReg[4] != s.VReg[2] {
		t.Errorf("vle round trip: %v vs %v", s.VReg[4], s.VReg[2])
	}
}

func TestFloatingPoint(t *testing.T) {
	m := asm(t, []isa.Inst{
		{Op: isa.OpADDI, Rd: 1, Rs1: 0, Imm: 0x40}, // x1 = 0x40
		{Op: isa.OpSLLI, Rd: 1, Rs1: 1, Imm: 56},   // x1 = bits of 2.0
		{Op: isa.OpFMVDX, Rd: 1, Rs1: 1},           // f1 = 2.0
		{Op: isa.OpFADDD, Rd: 2, Rs1: 1, Rs2: 1},   // f2 = 4.0
		{Op: isa.OpFMULD, Rd: 3, Rs1: 2, Rs2: 2},   // f3 = 16.0
		{Op: isa.OpFMVXD, Rd: 5, Rs1: 3},
	})
	run(m, 6)
	if got := m.State.GPR[5]; got != 0x4030000000000000 { // 16.0
		t.Errorf("fp chain = %#x", got)
	}
}

func TestHypervisorFault(t *testing.T) {
	m := asm(t, []isa.Inst{
		{Op: isa.OpHLVD, Rd: 1, Rs1: 0, Imm: 0}, // hgatp==0 -> guest fault
	})
	m.SetCSRAddr(isa.CSRMtvec, mem.RAMBase+0x80)
	ex := m.Step()
	if !ex.Exception || ex.Cause != isa.ExcGuestLoadPageFault {
		t.Fatalf("expected guest page fault, got %+v", ex)
	}
	if m.State.PC != mem.RAMBase+0x80 {
		t.Errorf("did not vector: pc=%#x", m.State.PC)
	}
}

func TestIllegalInstruction(t *testing.T) {
	ram := mem.New()
	ram.Write(mem.RAMBase, 4, 0xFFFFFFFF)
	m := NewMachine(ram)
	m.SetCSRAddr(isa.CSRMtvec, mem.RAMBase+0x200)
	ex := m.Step()
	if !ex.Exception || ex.Cause != isa.ExcIllegalInstr {
		t.Fatalf("illegal not trapped: %+v", ex)
	}
}

func TestMMIOThroughBus(t *testing.T) {
	ram := mem.New()
	m := NewMachine(ram)
	m.Bus = mem.NewBus(ram)
	// ld x1, 0(x2) with x2 = RNGBase
	m.State.GPR[2] = mem.RNGBase
	ram.Write(mem.RAMBase, 4, uint64(isa.MustEncode(isa.Inst{Op: isa.OpLD, Rd: 1, Rs1: 2})))
	ex := m.Step()
	if !ex.MMIO {
		t.Error("MMIO load not flagged")
	}
	if ex.MemData == 0 {
		t.Error("rng returned zero")
	}
	// Without a bus the same address reads RAM (zero).
	m2 := NewMachine(ram.Clone())
	m2.State.GPR[2] = mem.RNGBase
	ex2 := m2.Step()
	if ex2.MMIO || ex2.MemData != 0 {
		t.Errorf("busless machine touched a device: %+v", ex2)
	}
}

func TestSkipInstr(t *testing.T) {
	m := asm(t, []isa.Inst{{Op: isa.OpADDI, Rd: 1, Rs1: 0, Imm: 5}})
	m.SkipInstr(true, 7, 0xABCD)
	if m.State.GPR[7] != 0xABCD || m.State.PC != mem.RAMBase+4 {
		t.Errorf("skip: x7=%#x pc=%#x", m.State.GPR[7], m.State.PC)
	}
	if m.InstrRet != 1 {
		t.Errorf("instret = %d", m.InstrRet)
	}
}

// TestCompensationLogRevert is the core Replay property: executing an
// arbitrary instruction sequence and reverting restores the exact state,
// including memory.
func TestCompensationLogRevert(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	ram := mem.New()
	// Random but executable straight-line program: ALU ops, stores, loads,
	// CSR writes, vector ops.
	addr := mem.RAMBase
	ops := []isa.Inst{}
	for i := 0; i < 200; i++ {
		var in isa.Inst
		switch r.Intn(6) {
		case 0:
			in = isa.Inst{Op: isa.OpADDI, Rd: uint8(1 + r.Intn(15)), Rs1: uint8(r.Intn(16)), Imm: r.Int63n(1024)}
		case 1:
			in = isa.Inst{Op: isa.OpADD, Rd: uint8(1 + r.Intn(15)), Rs1: uint8(r.Intn(16)), Rs2: uint8(r.Intn(16))}
		case 2:
			in = isa.Inst{Op: isa.OpSD, Rs1: 31, Rs2: uint8(r.Intn(16)), Imm: int64(r.Intn(128)) * 8}
		case 3:
			in = isa.Inst{Op: isa.OpLD, Rd: uint8(1 + r.Intn(15)), Rs1: 31, Imm: int64(r.Intn(128)) * 8}
		case 4:
			in = isa.Inst{Op: isa.OpCSRRW, Rd: 0, Rs1: uint8(r.Intn(16)), CSR: isa.CSRMscratch}
		case 5:
			in = isa.Inst{Op: isa.OpFMVDX, Rd: uint8(r.Intn(8)), Rs1: uint8(r.Intn(16))}
		}
		ops = append(ops, in)
	}
	for _, in := range ops {
		ram.Write(addr, 4, uint64(isa.MustEncode(in)))
		addr += 4
	}
	m := NewMachine(ram)
	m.State.GPR[31] = 0x80008000 // data region base
	m.Log.Enable()

	// Execute half, checkpoint, execute rest, revert, compare.
	for i := 0; i < 100; i++ {
		m.Step()
	}
	want := m.State.Clone()
	memWant := m.Mem.Clone()
	mark := m.Log.Mark()
	for i := 0; i < 100; i++ {
		m.Step()
	}
	m.Log.RevertTo(m, mark)
	if !m.State.Equal(&want) {
		t.Fatalf("state not restored: %s", m.State.Diff(&want))
	}
	for a := uint64(0x80008000); a < 0x80008000+128*8; a += 8 {
		if m.Mem.Read(a, 8) != memWant.Read(a, 8) {
			t.Fatalf("memory not restored at %#x", a)
		}
	}
}

func TestCompLogTrim(t *testing.T) {
	var l CompLog
	l.Enable()
	for i := 0; i < 10; i++ {
		l.push(compEntry{kind: compGPR, idx: uint32(i)})
	}
	mark := 6
	dropped := l.TrimBefore(mark)
	if dropped != 6 || l.Len() != 4 {
		t.Errorf("trim: dropped=%d len=%d", dropped, l.Len())
	}
}

func BenchmarkStepALU(b *testing.B) {
	ram := mem.New()
	// Tight loop: addi x1,x1,1 ; jal x0, -4
	ram.Write(mem.RAMBase, 4, uint64(isa.MustEncode(isa.Inst{Op: isa.OpADDI, Rd: 1, Rs1: 1, Imm: 1})))
	ram.Write(mem.RAMBase+4, 4, uint64(isa.MustEncode(isa.Inst{Op: isa.OpJAL, Rd: 0, Imm: -4})))
	m := NewMachine(ram)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}

// TestCSRIndexMatchesMap: the dense table answers exactly what a map over
// isa.KnownCSRs does, on every 16-bit address — including the ones past the
// 12-bit CSR space, which are unknown.
func TestCSRIndexMatchesMap(t *testing.T) {
	want := make(map[uint16]int, len(isa.KnownCSRs))
	for i, a := range isa.KnownCSRs {
		want[a] = i
	}
	for a := 0; a <= 0xFFFF; a++ {
		w, ok := want[uint16(a)]
		if !ok {
			w = -1
		}
		if got := CSRIndex(uint16(a)); got != w {
			t.Fatalf("CSRIndex(%#x) = %d, want %d", a, got, w)
		}
	}
}

// TestAllocBudgetStep: after warm-up, Step allocates nothing — as the bare
// REF and as the DUT, with a device bus and an AfterExec hook that writes
// the record. Budget: 0 allocs/op (a Step-local Exec escaping through the
// hook or the writeback closures cost one per instruction).
func TestAllocBudgetStep(t *testing.T) {
	prog := []isa.Inst{
		{Op: isa.OpLUI, Rd: 2, Imm: 0x80001000},
		{Op: isa.OpADDI, Rd: 1, Rs1: 1, Imm: 1},
		{Op: isa.OpSD, Rs1: 2, Rs2: 1, Imm: 8},
		{Op: isa.OpLD, Rd: 3, Rs1: 2, Imm: 8},
		{Op: isa.OpCSRRW, Rd: 4, Rs1: 1, CSR: isa.CSRMscratch},
		{Op: isa.OpFMVDX, Rd: 1, Rs1: 3},
		{Op: isa.OpBNE, Rs1: 1, Rs2: 0, Imm: -20},
	}
	bare := asm(t, prog)
	dutLike := asm(t, prog)
	dutLike.Bus = mem.NewBus(dutLike.Mem)
	hooked := 0
	dutLike.Hooks.AfterExec = func(m *Machine, ex *Exec) {
		if ex.WroteInt {
			hooked++
			ex.Wdata ^= 0 // touch the record, as bug hooks do
		}
	}
	for name, m := range map[string]*Machine{"ref": bare, "dut": dutLike} {
		run(m, 64) // warm-up: first touch of each memory page
		if n := testing.AllocsPerRun(1000, func() { m.Step() }); n != 0 {
			t.Errorf("%s Step allocates %.2f/op, budget 0", name, n)
		}
		if m.State.GPR[1] < 100 {
			t.Fatalf("%s: program did not loop (x1=%d)", name, m.State.GPR[1])
		}
	}
	if hooked == 0 {
		t.Fatal("AfterExec hook never ran")
	}
}
