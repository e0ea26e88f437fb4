package arch

import (
	"repro/internal/isa"
	"repro/internal/mem"
)

// Exec reports everything a single instruction did. The DUT monitor converts
// Exec records into verification events; bug hooks may mutate them (together
// with machine state) to model RTL defects.
type Exec struct {
	PC     uint64
	NextPC uint64
	Instr  uint32
	Inst   isa.Inst

	// Register writeback.
	WroteInt bool
	WroteFp  bool
	WroteVec bool
	Wdest    uint8
	Wdata    uint64
	VData    [4]uint64

	// Memory access.
	Mem     bool
	IsLoad  bool
	MemAddr uint64
	MemSize int
	MemData uint64
	MMIO    bool

	// Atomics.
	Atomic    bool
	AtomicOld uint64
	LrSc      bool
	ScSuccess bool

	// Vector.
	Vec bool
	Vl  uint64

	// Exception taken by this instruction (instead of normal retirement).
	Exception bool
	Cause     uint64
	Tval      uint64

	// Special system instructions (ecall/mret/wfi/fence).
	Special bool
}

// Hooks let the DUT inject microarchitectural bugs: AfterExec runs after an
// instruction fully executes and may corrupt state and the Exec record.
type Hooks struct {
	AfterExec func(m *Machine, ex *Exec)
}

// Machine executes the ISA over a memory. With a Bus attached, MMIO
// addresses reach devices (the DUT configuration); without one, all
// addresses read/write plain memory (the REF configuration, whose MMIO
// results are synchronized externally).
type Machine struct {
	State State
	Mem   *mem.Memory
	Bus   *mem.Bus
	Hooks Hooks
	Log   CompLog

	// InstrRet counts retired instructions (including excepting ones).
	InstrRet uint64

	exec Exec // Step's working record
}

// NewMachine returns a machine over m with reset state.
func NewMachine(m *mem.Memory) *Machine {
	return &Machine{State: NewState(), Mem: m}
}

// Logged state mutators.

// SetGPR writes an integer register (x0 stays hardwired to zero).
func (m *Machine) SetGPR(i uint8, v uint64) {
	if i == 0 {
		return
	}
	m.Log.push(compEntry{kind: compGPR, idx: uint32(i), old: m.State.GPR[i]})
	m.State.GPR[i] = v
}

// SetFPR writes a floating-point register.
func (m *Machine) SetFPR(i uint8, v uint64) {
	m.Log.push(compEntry{kind: compFPR, idx: uint32(i), old: m.State.FPR[i]})
	m.State.FPR[i] = v
}

// SetVRegLane writes one 64-bit lane of a vector register.
func (m *Machine) SetVRegLane(reg, lane int, v uint64) {
	m.Log.push(compEntry{kind: compVReg, idx: uint32(reg*4 + lane), old: m.State.VReg[reg][lane]})
	m.State.VReg[reg][lane] = v
}

// SetCSRAddr writes a CSR by address, respecting hardwired registers.
func (m *Machine) SetCSRAddr(addr uint16, v uint64) {
	if addr == isa.CSRMhartid || addr == isa.CSRVlenb || addr == isa.CSRMisa {
		return
	}
	i := CSRIndex(addr)
	if i < 0 {
		return
	}
	m.Log.push(compEntry{kind: compCSR, idx: uint32(i), old: m.State.CSR[i]})
	m.State.CSR[i] = v
}

// SetPC updates the program counter.
func (m *Machine) SetPC(pc uint64) {
	m.Log.push(compEntry{kind: compPC, addr: m.State.PC})
	m.State.PC = pc
}

func (m *Machine) setLr(valid bool, addr uint64) {
	var ov uint64
	if m.State.LrValid {
		ov = 1
	}
	m.Log.push(compEntry{kind: compLr, addr: m.State.LrAddr, old: ov})
	m.State.LrValid, m.State.LrAddr = valid, addr
}

// PhysMask truncates canonical (sign-extended) addresses to the 32-bit
// physical address space where RAM and all devices live, mirroring the DUT's
// physical address width.
const PhysMask = 0xFFFF_FFFF

// LoadMem reads size bytes at addr, honouring the device bus when present.
// The second result reports whether the access was MMIO.
func (m *Machine) LoadMem(addr uint64, size int) (uint64, bool) {
	addr &= PhysMask
	if m.Bus != nil {
		return m.Bus.Load(addr, size)
	}
	return m.Mem.Read(addr, size), false
}

// StoreMem writes size bytes at addr with compensation logging, honouring
// the device bus. The result reports whether the access was MMIO.
func (m *Machine) StoreMem(addr uint64, size int, val uint64) bool {
	addr &= PhysMask
	if m.Bus != nil {
		if d := mem.IsMMIO(addr); d {
			return m.Bus.Store(addr, size, val)
		}
	}
	if m.Log.Enabled() {
		old := m.Mem.Read(addr, size)
		m.Log.push(compEntry{kind: compMem, addr: addr, old: old, size: uint8(size)})
	}
	m.Mem.Write(addr, size, val)
	return false
}

// RaiseException vectors the machine to mtvec, updating the trap CSRs.
func (m *Machine) RaiseException(cause, tval uint64) {
	m.SetCSRAddr(isa.CSRMepc, m.State.PC)
	m.SetCSRAddr(isa.CSRMcause, cause)
	m.SetCSRAddr(isa.CSRMtval, tval)
	m.pushStatusStack()
	m.SetPC(m.State.CSRVal(isa.CSRMtvec) &^ 3)
}

// TakeInterrupt forces an asynchronous interrupt trap before the next
// instruction. The DUT decides when; the REF is told by the checker.
func (m *Machine) TakeInterrupt(cause uint64) {
	m.SetCSRAddr(isa.CSRMepc, m.State.PC)
	m.SetCSRAddr(isa.CSRMcause, cause|isa.InterruptBit)
	m.SetCSRAddr(isa.CSRMtval, 0)
	m.pushStatusStack()
	m.SetPC(m.State.CSRVal(isa.CSRMtvec) &^ 3)
}

// mstatus bit positions.
const (
	mstatusMIE  = 1 << 3
	mstatusMPIE = 1 << 7
	mstatusMPP  = 3 << 11
)

func (m *Machine) pushStatusStack() {
	st := m.State.CSRVal(isa.CSRMstatus)
	st &^= mstatusMPIE
	if st&mstatusMIE != 0 {
		st |= mstatusMPIE
	}
	st &^= mstatusMIE
	st |= mstatusMPP // previous privilege = M
	m.SetCSRAddr(isa.CSRMstatus, st)
}

func (m *Machine) popStatusStack() {
	st := m.State.CSRVal(isa.CSRMstatus)
	st &^= mstatusMIE
	if st&mstatusMPIE != 0 {
		st |= mstatusMIE
	}
	st |= mstatusMPIE
	m.SetCSRAddr(isa.CSRMstatus, st)
}

// InterruptsEnabled reports whether mstatus.MIE is set.
func (m *Machine) InterruptsEnabled() bool {
	return m.State.CSRVal(isa.CSRMstatus)&mstatusMIE != 0
}

// InterruptPendingEnabled returns the highest-priority pending-and-enabled
// interrupt cause, if any, based on mip & mie.
func (m *Machine) InterruptPendingEnabled() (uint64, bool) {
	if !m.InterruptsEnabled() {
		return 0, false
	}
	pending := m.State.CSRVal(isa.CSRMip) & m.State.CSRVal(isa.CSRMie)
	for _, c := range []uint64{isa.IntExternalM, isa.IntSoftwareM, isa.IntTimerM, isa.IntVirtual} {
		if pending&(1<<c) != 0 {
			return c, true
		}
	}
	return 0, false
}

// SkipInstr retires an instruction without executing it, forcing the given
// writeback — the DiffTest "skip" mechanism for MMIO instructions whose
// results are synchronized from the DUT (paper §2.1).
func (m *Machine) SkipInstr(wroteInt bool, wdest uint8, wdata uint64) {
	if wroteInt {
		m.SetGPR(wdest, wdata)
	}
	m.SetPC(m.State.PC + 4)
	m.InstrRet++
}
