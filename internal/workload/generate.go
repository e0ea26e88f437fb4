package workload

import (
	"math/rand"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Register discipline for generated code:
//
//	x1–x24  free for random instruction operands
//	x25     generator temp for multi-instruction sequences (guest faults,
//	        AMOs, long jumps, MMIO device addresses); the trap handler
//	        never writes it
//	x26,x27 trap-handler temps, also the UART data byte (clobbered by the
//	        handler)
//	x30     loop counter
//	x31     data region base
const (
	regSeq  = 25
	regTmpA = 26
	regTmpB = 27
	regLoop = 30
	regData = 31
)

// Per-core memory layout.
const (
	coreCodeStride = 0x0040_0000 // 4 MiB of code space per core
	handlerOffset  = 0x0002_0000 // trap handler within the code region
	dataRegionBase = mem.RAMBase + 0x0800_0000
	coreDataStride = 0x0100_0000 // 16 MiB of private data per core
	dataSeedBytes  = 1 << 16     // pre-seeded random data per core
)

// Program is a generated workload: a memory image plus per-core entry PCs.
// The DUT and REF both execute clones of the same image.
type Program struct {
	Name    string
	Profile Profile
	Image   *mem.Memory
	Entries []uint64

	// StaticInstrs counts generated (static) instructions per core.
	StaticInstrs int
	// LoopIters is the main-loop trip count per core.
	LoopIters int
}

// Generate assembles a workload for the given number of cores. Generation is
// fully deterministic in (profile, cores, seed). The profile must satisfy
// Validate — an invalid one is a programmer error and panics; callers taking
// untrusted profiles (cosim.Run, the fuzzer's mutators, session handshakes)
// validate first and surface the error.
func Generate(p Profile, cores int, seed int64) *Program {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if cores < 1 {
		cores = 1
	}
	prog := &Program{Name: p.Name, Profile: p, Image: mem.New()}
	for c := 0; c < cores; c++ {
		g := &gen{
			prof: p,
			rng:  rand.New(rand.NewSource(seed + int64(c)*7919)),
			base: mem.RAMBase + uint64(c)*coreCodeStride,
			data: dataRegionBase + uint64(c)*coreDataStride,
		}
		g.buildCore(prog, c)
	}
	return prog
}

type gen struct {
	prof Profile
	rng  *rand.Rand
	base uint64 // code base for this core
	data uint64 // data region base for this core
	code []isa.Inst
}

func (g *gen) emit(in isa.Inst) { g.code = append(g.code, in) }

func (g *gen) reg() uint8 { return uint8(1 + g.rng.Intn(24)) }

// materialize loads a 32-bit constant into rd (1 or 2 instructions).
func (g *gen) materialize(rd uint8, v uint64) {
	sv := int64(int32(uint32(v)))
	if sv >= -2048 && sv < 2048 {
		g.emit(isa.Inst{Op: isa.OpADDI, Rd: rd, Rs1: 0, Imm: sv})
		return
	}
	hi := (uint32(v) + 0x800) & 0xFFFFF000
	lo := int64(int32(uint32(v) - hi))
	g.emit(isa.Inst{Op: isa.OpLUI, Rd: rd, Imm: int64(int32(hi))})
	if lo != 0 {
		g.emit(isa.Inst{Op: isa.OpADDI, Rd: rd, Rs1: rd, Imm: lo})
	}
}

// addrParts splits an absolute address into a LUI constant and a signed
// 12-bit offset for a subsequent load/store.
func addrParts(addr uint64) (lui int64, off int64) {
	hi := (uint32(addr) + 0x800) & 0xFFFFF000
	return int64(int32(hi)), int64(int32(uint32(addr) - hi))
}

func (g *gen) buildCore(prog *Program, core int) {
	p := g.prof

	// --- init ---
	g.materialize(regData, g.data)
	mtvecLui, mtvecOff := addrParts(g.base + handlerOffset)
	g.emit(isa.Inst{Op: isa.OpLUI, Rd: regTmpA, Imm: mtvecLui})
	if mtvecOff != 0 {
		g.emit(isa.Inst{Op: isa.OpADDI, Rd: regTmpA, Rs1: regTmpA, Imm: mtvecOff})
	}
	g.emit(isa.Inst{Op: isa.OpCSRRW, Rd: 0, Rs1: regTmpA, CSR: isa.CSRMtvec})

	// Enable timer, software, external, and virtual interrupt sources.
	g.materialize(regTmpA, 1<<isa.IntTimerM|1<<isa.IntSoftwareM|1<<isa.IntExternalM|1<<isa.IntVirtual)
	g.emit(isa.Inst{Op: isa.OpCSRRW, Rd: 0, Rs1: regTmpA, CSR: isa.CSRMie})

	// Seed the integer registers with varied constants.
	for r := uint8(1); r <= 24; r++ {
		g.materialize(r, g.rng.Uint64()&0x7FFFFFFF)
	}
	// Vector length and a nonzero hgatp so guest accesses translate.
	g.emit(isa.Inst{Op: isa.OpVSETVLI, Rd: 0, Rs1: 0, Imm: 0xC1})
	if p.WHyp > 0 {
		g.emit(isa.Inst{Op: isa.OpADDI, Rd: regTmpA, Rs1: 0, Imm: 1})
		g.emit(isa.Inst{Op: isa.OpCSRRW, Rd: 0, Rs1: regTmpA, CSR: isa.CSRHgatp})
	}
	if p.TimerInterval > 0 {
		g.emitTimerRearm()
	}
	// Global interrupt enable last.
	g.emit(isa.Inst{Op: isa.OpCSRRSI, Rd: 0, Rs1: 8, CSR: isa.CSRMstatus})

	// Loop counter set after we know the body length; reserve two slots.
	loopSetAt := len(g.code)
	g.emit(isa.Inst{Op: isa.OpADDI}) // placeholder (lui)
	g.emit(isa.Inst{Op: isa.OpADDI}) // placeholder (addi)

	// --- body ---
	bodyStart := len(g.code)
	slots := 1200
	for i := 0; i < slots; i++ {
		g.emitSlot()
	}
	bodyLen := len(g.code) - bodyStart

	iters := int(p.TargetInstrs / uint64(bodyLen+2))
	if iters < 1 {
		iters = 1
	}
	prog.LoopIters = iters
	// Patch the loop counter materialization.
	hi := (uint32(iters) + 0x800) & 0xFFFFF000
	lo := int64(int32(uint32(iters) - hi))
	g.code[loopSetAt] = isa.Inst{Op: isa.OpLUI, Rd: regLoop, Imm: int64(int32(hi))}
	g.code[loopSetAt+1] = isa.Inst{Op: isa.OpADDI, Rd: regLoop, Rs1: regLoop, Imm: lo}

	// Loop back-edge: decrement, skip-exit, long jump back.
	g.emit(isa.Inst{Op: isa.OpADDI, Rd: regLoop, Rs1: regLoop, Imm: -1})
	g.emit(isa.Inst{Op: isa.OpBEQ, Rs1: regLoop, Rs2: 0, Imm: 8})
	back := int64(bodyStart-len(g.code)) * 4
	g.emit(isa.Inst{Op: isa.OpJAL, Rd: 0, Imm: back})

	// --- epilogue: good trap ---
	//
	// The exit sequence must be interrupt-atomic: the trap handler clobbers
	// x26/x27, so a timer interrupt landing between the LUI and the SD would
	// redirect the exit store to the CLINT and the program would never signal
	// completion (found by the workload fuzzer: short timer intervals make
	// the one-instruction window near-certain; long ones make it a rare
	// timing-dependent hang). Clear mstatus.MIE first so no interrupt can
	// split the pair.
	g.emit(isa.Inst{Op: isa.OpCSRRCI, Rd: 0, Rs1: 8, CSR: isa.CSRMstatus})
	exitLui, exitOff := addrParts(mem.ExitBase)
	g.emit(isa.Inst{Op: isa.OpLUI, Rd: regTmpB, Imm: exitLui})
	g.emit(isa.Inst{Op: isa.OpSD, Rs1: regTmpB, Rs2: 0, Imm: exitOff})
	g.emit(isa.Inst{Op: isa.OpWFI})                // not reached
	g.emit(isa.Inst{Op: isa.OpJAL, Rd: 0, Imm: 0}) // backstop: never fall off the code

	if len(g.code)*4 >= handlerOffset {
		panic("workload: body overflows into trap handler")
	}

	// Write the program and handler into the image.
	writeInsts(prog.Image, g.base, g.code)
	writeInsts(prog.Image, g.base+handlerOffset, g.handler())
	prog.StaticInstrs += len(g.code)

	// Seed the data region deterministically.
	buf := make([]byte, dataSeedBytes)
	g.rng.Read(buf)
	prog.Image.WriteBytes(g.data, buf)

	prog.Entries = append(prog.Entries, g.base)
}

func writeInsts(img *mem.Memory, addr uint64, code []isa.Inst) {
	for _, in := range code {
		img.Write(addr, 4, uint64(isa.MustEncode(in)))
		addr += 4
	}
}

// emitTimerRearm arms mtimecmp = mtime + TimerInterval using x26/x27.
func (g *gen) emitTimerRearm() {
	mtLui, mtOff := addrParts(mem.CLINTBase + 0xBFF8)
	g.emit(isa.Inst{Op: isa.OpLUI, Rd: regTmpB, Imm: mtLui})
	g.emit(isa.Inst{Op: isa.OpLD, Rd: regTmpA, Rs1: regTmpB, Imm: mtOff})
	for rem := g.prof.TimerInterval; rem > 0; {
		step := rem
		if step > 2000 {
			step = 2000
		}
		g.emit(isa.Inst{Op: isa.OpADDI, Rd: regTmpA, Rs1: regTmpA, Imm: int64(step)})
		rem -= step
	}
	cmpLui, cmpOff := addrParts(mem.CLINTBase + 0x4000)
	g.emit(isa.Inst{Op: isa.OpLUI, Rd: regTmpB, Imm: cmpLui})
	g.emit(isa.Inst{Op: isa.OpSD, Rs1: regTmpB, Rs2: regTmpA, Imm: cmpOff})
}

// handler emits the shared trap handler: interrupts re-arm the timer and
// return to the interrupted PC; exceptions advance mepc past the faulting
// instruction.
func (g *gen) handler() []isa.Inst {
	h := []isa.Inst{
		{Op: isa.OpCSRRS, Rd: regTmpA, Rs1: 0, CSR: isa.CSRMcause}, // 0
		{Op: isa.OpBGE, Rs1: regTmpA, Rs2: 0, Imm: 0},              // 1: → exc (patched)
		// Interrupt path: rearm timer only for the timer cause.
		{Op: isa.OpANDI, Rd: regTmpA, Rs1: regTmpA, Imm: 0x3F},           // 2
		{Op: isa.OpADDI, Rd: regTmpB, Rs1: 0, Imm: int64(isa.IntTimerM)}, // 3
		{Op: isa.OpBNE, Rs1: regTmpA, Rs2: regTmpB, Imm: 0},              // 4: → done (patched)
	}
	rearmStart := len(h)
	mtLui, mtOff := addrParts(mem.CLINTBase + 0xBFF8)
	h = append(h,
		isa.Inst{Op: isa.OpLUI, Rd: regTmpB, Imm: mtLui},
		isa.Inst{Op: isa.OpLD, Rd: regTmpA, Rs1: regTmpB, Imm: mtOff},
	)
	interval := g.prof.TimerInterval
	if interval == 0 {
		interval = 2000
	}
	for rem := interval; rem > 0; {
		step := rem
		if step > 2000 {
			step = 2000
		}
		h = append(h, isa.Inst{Op: isa.OpADDI, Rd: regTmpA, Rs1: regTmpA, Imm: int64(step)})
		rem -= step
	}
	cmpLui, cmpOff := addrParts(mem.CLINTBase + 0x4000)
	h = append(h,
		isa.Inst{Op: isa.OpLUI, Rd: regTmpB, Imm: cmpLui},
		isa.Inst{Op: isa.OpSD, Rs1: regTmpB, Rs2: regTmpA, Imm: cmpOff},
		isa.Inst{Op: isa.OpJAL, Rd: 0, Imm: 0}, // → done (patched)
	)
	jalAt := len(h) - 1
	excStart := len(h)
	h = append(h,
		isa.Inst{Op: isa.OpCSRRS, Rd: regTmpA, Rs1: 0, CSR: isa.CSRMepc},
		isa.Inst{Op: isa.OpADDI, Rd: regTmpA, Rs1: regTmpA, Imm: 4},
		isa.Inst{Op: isa.OpCSRRW, Rd: 0, Rs1: regTmpA, CSR: isa.CSRMepc},
	)
	done := len(h)
	h = append(h, isa.Inst{Op: isa.OpMRET})

	h[1].Imm = int64(excStart-1) * 4
	h[4].Imm = int64(done-4) * 4
	h[jalAt].Imm = int64(done-jalAt) * 4
	_ = rearmStart
	return h
}

// emitSlot emits one weighted-random instruction (or short sequence).
func (g *gen) emitSlot() {
	p := g.prof

	// Per-mille special sequences first.
	r := g.rng.Intn(1000)
	switch {
	case r < p.MMIOPerMille:
		g.emitMMIO()
		return
	case r < p.MMIOPerMille+p.EcallPerMille:
		g.emit(isa.Inst{Op: isa.OpECALL})
		return
	case r < p.MMIOPerMille+p.EcallPerMille+p.GuestFaultPM:
		g.emitGuestFault()
		return
	}

	total := p.WALU + p.WBranch + p.WLoad + p.WStore + p.WMulDiv + p.WCSR +
		p.WFP + p.WVec + p.WAtomic + p.WHyp
	if total == 0 {
		total, p.WALU = 1, 1
	}
	w := g.rng.Intn(total)
	switch {
	case w < p.WALU:
		g.emitALU()
	case w < p.WALU+p.WBranch:
		g.emitBranch()
	case w < p.WALU+p.WBranch+p.WLoad:
		g.emitLoad()
	case w < p.WALU+p.WBranch+p.WLoad+p.WStore:
		g.emitStore()
	case w < p.WALU+p.WBranch+p.WLoad+p.WStore+p.WMulDiv:
		g.emitMulDiv()
	case w < p.WALU+p.WBranch+p.WLoad+p.WStore+p.WMulDiv+p.WCSR:
		g.emitCSR()
	case w < p.WALU+p.WBranch+p.WLoad+p.WStore+p.WMulDiv+p.WCSR+p.WFP:
		g.emitFP()
	case w < p.WALU+p.WBranch+p.WLoad+p.WStore+p.WMulDiv+p.WCSR+p.WFP+p.WVec:
		g.emitVec()
	case w < p.WALU+p.WBranch+p.WLoad+p.WStore+p.WMulDiv+p.WCSR+p.WFP+p.WVec+p.WAtomic:
		g.emitAtomic()
	default:
		g.emitHyp()
	}
}

var aluOps = []isa.Opcode{
	isa.OpADD, isa.OpSUB, isa.OpXOR, isa.OpOR, isa.OpAND, isa.OpSLL, isa.OpSRL,
	isa.OpSRA, isa.OpSLT, isa.OpSLTU, isa.OpADDW, isa.OpSUBW, isa.OpSLLW,
}

var aluImmOps = []isa.Opcode{
	isa.OpADDI, isa.OpXORI, isa.OpORI, isa.OpANDI, isa.OpSLTI, isa.OpSLTIU, isa.OpADDIW,
}

func (g *gen) emitALU() {
	if g.rng.Intn(2) == 0 {
		op := aluOps[g.rng.Intn(len(aluOps))]
		g.emit(isa.Inst{Op: op, Rd: g.reg(), Rs1: g.reg(), Rs2: g.reg()})
		return
	}
	switch g.rng.Intn(4) {
	case 0:
		g.emit(isa.Inst{Op: isa.OpLUI, Rd: g.reg(), Imm: int64(int32(g.rng.Uint32() & 0xFFFFF000))})
	case 1:
		sh := []isa.Opcode{isa.OpSLLI, isa.OpSRLI, isa.OpSRAI}[g.rng.Intn(3)]
		g.emit(isa.Inst{Op: sh, Rd: g.reg(), Rs1: g.reg(), Imm: int64(g.rng.Intn(64))})
	default:
		op := aluImmOps[g.rng.Intn(len(aluImmOps))]
		g.emit(isa.Inst{Op: op, Rd: g.reg(), Rs1: g.reg(), Imm: int64(g.rng.Intn(4096) - 2048)})
	}
}

func (g *gen) emitBranch() {
	// A forward branch over k freshly generated ALU instructions, or an
	// auipc/jalr hop; both are well-formed whether or not taken.
	if g.rng.Intn(8) == 0 {
		// regSeq is never clobbered by the trap handler, so an interrupt
		// landing inside this sequence cannot corrupt the jump target.
		rd := g.reg()
		g.emit(isa.Inst{Op: isa.OpAUIPC, Rd: regSeq, Imm: 0})
		g.emit(isa.Inst{Op: isa.OpADDI, Rd: regSeq, Rs1: regSeq, Imm: 12})
		g.emit(isa.Inst{Op: isa.OpJALR, Rd: rd, Rs1: regSeq, Imm: 0})
		return
	}
	k := 1 + g.rng.Intn(5)
	ops := []isa.Opcode{isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU}
	op := ops[g.rng.Intn(len(ops))]
	g.emit(isa.Inst{Op: op, Rs1: g.reg(), Rs2: g.reg(), Imm: int64(k+1) * 4})
	for i := 0; i < k; i++ {
		g.emitALU()
	}
}

func (g *gen) dataOff(align int) int64 {
	return int64(g.rng.Intn(2048/align)) * int64(align)
}

func (g *gen) emitLoad() {
	ops := []isa.Opcode{isa.OpLB, isa.OpLH, isa.OpLW, isa.OpLD, isa.OpLBU, isa.OpLHU, isa.OpLWU}
	op := ops[g.rng.Intn(len(ops))]
	g.emit(isa.Inst{Op: op, Rd: g.reg(), Rs1: regData, Imm: g.dataOff(isa.MemSize(op))})
}

func (g *gen) emitStore() {
	ops := []isa.Opcode{isa.OpSB, isa.OpSH, isa.OpSW, isa.OpSD}
	op := ops[g.rng.Intn(len(ops))]
	g.emit(isa.Inst{Op: op, Rs1: regData, Rs2: g.reg(), Imm: g.dataOff(isa.MemSize(op))})
}

var mulDivOps = []isa.Opcode{
	isa.OpMUL, isa.OpMULH, isa.OpMULHU, isa.OpMULHSU, isa.OpDIV, isa.OpDIVU,
	isa.OpREM, isa.OpREMU, isa.OpMULW, isa.OpDIVW, isa.OpREMW,
}

func (g *gen) emitMulDiv() {
	op := mulDivOps[g.rng.Intn(len(mulDivOps))]
	g.emit(isa.Inst{Op: op, Rd: g.reg(), Rs1: g.reg(), Rs2: g.reg()})
}

var safeCSRs = []uint16{
	isa.CSRMscratch, isa.CSRFcsr, isa.CSRVxrm, isa.CSRVxsat, isa.CSRVstart,
	isa.CSRMedeleg, isa.CSRMideleg, isa.CSRHedeleg, isa.CSRHideleg,
	isa.CSRVsstatus, isa.CSRVstvec, isa.CSRVsepc, isa.CSRVscause,
	isa.CSRMcycle, isa.CSRMinstret, isa.CSRHtval, isa.CSRHtinst,
}

func (g *gen) emitCSR() {
	csr := safeCSRs[g.rng.Intn(len(safeCSRs))]
	switch g.rng.Intn(3) {
	case 0:
		g.emit(isa.Inst{Op: isa.OpCSRRW, Rd: g.reg(), Rs1: g.reg(), CSR: csr})
	case 1:
		g.emit(isa.Inst{Op: isa.OpCSRRS, Rd: g.reg(), Rs1: g.reg(), CSR: csr})
	default:
		g.emit(isa.Inst{Op: isa.OpCSRRCI, Rd: g.reg(), Rs1: uint8(g.rng.Intn(32)), CSR: csr})
	}
}

func (g *gen) emitFP() {
	switch g.rng.Intn(5) {
	case 0:
		g.emit(isa.Inst{Op: isa.OpFLD, Rd: uint8(g.rng.Intn(8)), Rs1: regData, Imm: g.dataOff(8)})
	case 1:
		g.emit(isa.Inst{Op: isa.OpFSD, Rs1: regData, Rs2: uint8(g.rng.Intn(8)), Imm: g.dataOff(8)})
	case 2:
		g.emit(isa.Inst{Op: isa.OpFMVDX, Rd: uint8(g.rng.Intn(8)), Rs1: g.reg()})
	case 3:
		g.emit(isa.Inst{Op: isa.OpFMVXD, Rd: g.reg(), Rs1: uint8(g.rng.Intn(8))})
	default:
		ops := []isa.Opcode{isa.OpFADDD, isa.OpFSUBD, isa.OpFMULD, isa.OpFSGNJD}
		op := ops[g.rng.Intn(len(ops))]
		g.emit(isa.Inst{Op: op, Rd: uint8(g.rng.Intn(8)), Rs1: uint8(g.rng.Intn(8)), Rs2: uint8(g.rng.Intn(8))})
	}
}

func (g *gen) emitVec() {
	switch g.rng.Intn(7) {
	case 0:
		g.emit(isa.Inst{Op: isa.OpVLE, Rd: uint8(g.rng.Intn(8)), Rs1: regData, Imm: g.dataOff(8)})
	case 1:
		g.emit(isa.Inst{Op: isa.OpVSE, Rs1: regData, Rs2: uint8(g.rng.Intn(8)), Imm: g.dataOff(8)})
	case 2:
		g.emit(isa.Inst{Op: isa.OpVMVVX, Rd: uint8(g.rng.Intn(8)), Rs1: g.reg()})
	case 3:
		// Re-negotiate the vector length (vl saturates at VLMAX=4 because
		// the seeded source registers hold large values).
		g.emit(isa.Inst{Op: isa.OpVSETVLI, Rd: g.reg(), Rs1: g.reg(), Imm: 0xC1})
	case 4:
		// Exercise VstartUpdate: write a nonzero vstart, then a vector op
		// resets it.
		g.emit(isa.Inst{Op: isa.OpCSRRSI, Rd: 0, Rs1: uint8(1 + g.rng.Intn(3)), CSR: isa.CSRVstart})
		g.emit(isa.Inst{Op: isa.OpVADDVV, Rd: uint8(g.rng.Intn(8)), Rs1: uint8(g.rng.Intn(8)), Rs2: uint8(g.rng.Intn(8))})
	default:
		ops := []isa.Opcode{isa.OpVADDVV, isa.OpVXORVV, isa.OpVANDVV}
		op := ops[g.rng.Intn(len(ops))]
		g.emit(isa.Inst{Op: op, Rd: uint8(g.rng.Intn(8)), Rs1: uint8(g.rng.Intn(8)), Rs2: uint8(g.rng.Intn(8))})
	}
}

func (g *gen) emitAtomic() {
	off := g.dataOff(8)
	g.emit(isa.Inst{Op: isa.OpADDI, Rd: regSeq, Rs1: regData, Imm: off})
	switch g.rng.Intn(4) {
	case 0, 1:
		g.emit(isa.Inst{Op: isa.OpLRD, Rd: g.reg(), Rs1: regSeq})
		g.emit(isa.Inst{Op: isa.OpSCD, Rd: g.reg(), Rs1: regSeq, Rs2: g.reg()})
	case 2:
		// Store-conditional without a reservation: architecturally fails,
		// exercising the LrSc failure path.
		g.emit(isa.Inst{Op: isa.OpSCD, Rd: g.reg(), Rs1: regSeq, Rs2: g.reg()})
	default:
		ops := []isa.Opcode{isa.OpAMOSWAPD, isa.OpAMOADDD, isa.OpAMOXORD, isa.OpAMOANDD, isa.OpAMOORD}
		op := ops[g.rng.Intn(len(ops))]
		g.emit(isa.Inst{Op: op, Rd: g.reg(), Rs1: regSeq, Rs2: g.reg()})
	}
}

func (g *gen) emitHyp() {
	if g.rng.Intn(2) == 0 {
		g.emit(isa.Inst{Op: isa.OpHLVD, Rd: g.reg(), Rs1: regData, Imm: g.dataOff(8)})
	} else {
		g.emit(isa.Inst{Op: isa.OpHSVD, Rs1: regData, Rs2: g.reg(), Imm: g.dataOff(8)})
	}
}

// emitGuestFault briefly zeroes hgatp so the next guest load takes a guest
// page fault, then restores it (paper §6.5 bug category 2 territory).
func (g *gen) emitGuestFault() {
	g.emit(isa.Inst{Op: isa.OpCSRRW, Rd: regSeq, Rs1: 0, CSR: isa.CSRHgatp})
	g.emit(isa.Inst{Op: isa.OpHLVD, Rd: g.reg(), Rs1: regData, Imm: g.dataOff(8)})
	g.emit(isa.Inst{Op: isa.OpCSRRW, Rd: 0, Rs1: regSeq, CSR: isa.CSRHgatp})
}

// emitMMIO emits one device access: a UART write, an RNG read, or an mtime
// read — the non-deterministic events the REF must be synchronized with.
// The device address is held in regSeq, which the trap handler never
// writes: an interrupt between the LUI and the access must not redirect it
// (the hazard the exit sequence guards against by masking interrupts).
func (g *gen) emitMMIO() {
	switch g.rng.Intn(3) {
	case 0: // UART putc
		lui, off := addrParts(mem.UARTBase)
		g.emit(isa.Inst{Op: isa.OpLUI, Rd: regSeq, Imm: lui})
		g.emit(isa.Inst{Op: isa.OpADDI, Rd: regTmpA, Rs1: 0, Imm: int64(32 + g.rng.Intn(95))})
		g.emit(isa.Inst{Op: isa.OpSB, Rs1: regSeq, Rs2: regTmpA, Imm: off})
	case 1: // RNG read into a live register
		lui, off := addrParts(mem.RNGBase)
		g.emit(isa.Inst{Op: isa.OpLUI, Rd: regSeq, Imm: lui})
		g.emit(isa.Inst{Op: isa.OpLD, Rd: g.reg(), Rs1: regSeq, Imm: off})
	default: // mtime read
		lui, off := addrParts(mem.CLINTBase + 0xBFF8)
		g.emit(isa.Inst{Op: isa.OpLUI, Rd: regSeq, Imm: lui})
		g.emit(isa.Inst{Op: isa.OpLD, Rd: g.reg(), Rs1: regSeq, Imm: off})
	}
}
