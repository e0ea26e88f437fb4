package event

// Event is a verification event extracted from the DUT. Every concrete
// implementation is a fixed-size struct whose wire encoding is its
// little-endian field layout, produced by the generated zero-allocation
// codec (see codec.go and codec_gen.go).
type Event interface {
	// Kind identifies the event type.
	Kind() Kind
	WireCodec
}

// NonDeterministic is implemented by events that may be NDEs: DUT-specific
// behaviour (MMIO access, interrupts) the reference model cannot reproduce
// and must be synchronized with (paper §2.1, §4.3).
type NonDeterministic interface {
	NDE() bool
}

// IsNDE reports whether ev is a non-deterministic event instance.
func IsNDE(ev Event) bool {
	if n, ok := ev.(NonDeterministic); ok {
		return n.NDE()
	}
	return false
}

// loadMMIOOffset is the byte offset of Load.MMIO in its wire encoding.
const loadMMIOOffset = 34

// IsNDEEncoding is IsNDE on a wire encoding of kind k: interrupts always,
// loads when their MMIO byte is set.
func IsNDEEncoding(k Kind, data []byte) bool {
	switch k {
	case KindInterrupt, KindVirtualInterrupt:
		return true
	case KindLoad:
		return len(data) > loadMMIOOffset && data[loadMMIOOffset] != 0
	default:
		// No other kind implements NonDeterministic.
		return false
	}
}

// InstrCommit flags.
const (
	CommitRfWen   uint16 = 1 << 0 // writes an integer register
	CommitFpWen   uint16 = 1 << 1 // writes a floating-point register
	CommitVecWen  uint16 = 1 << 2 // writes a vector register
	CommitSkip    uint16 = 1 << 3 // REF must skip execution (MMIO result synced)
	CommitSpecial uint16 = 1 << 4 // trap-adjacent commit (mret, ecall, ...)
)

// InstrCommit reports one retired instruction. (32 bytes)
type InstrCommit struct {
	PC     uint64
	Instr  uint32
	Flags  uint16
	Wdest  uint8
	FuType uint8
	Wdata  uint64
	RobIdx uint16
	_      [6]uint8
}

// Trap reports simulation end (good/bad trap). (32 bytes)
type Trap struct {
	PC       uint64
	Code     uint64
	Cycle    uint64
	InstrCnt uint64
}

// Exception reports a synchronous exception taken by the DUT. (32 bytes)
type Exception struct {
	PC    uint64
	Cause uint64
	Tval  uint64
	Instr uint32
	_     uint32
}

// Interrupt reports an asynchronous interrupt taken by the DUT. It is always
// an NDE: the REF must be forced to take the same interrupt at the same
// instruction boundary. (16 bytes)
type Interrupt struct {
	Cause uint64
	PC    uint64
}

// Redirect reports a control-flow redirect (branch resolution). (24 bytes)
type Redirect struct {
	PC      uint64
	Target  uint64
	Taken   uint8
	Mispred uint8
	_       [6]uint8
}

// ArchIntRegState snapshots the 32 integer registers. (256 bytes)
type ArchIntRegState struct {
	GPR [32]uint64
}

// ArchFpRegState snapshots the 32 floating-point registers. (256 bytes)
type ArchFpRegState struct {
	FPR [32]uint64
}

// CSRState snapshots the machine-mode CSR group. The field order is the
// canonical comparison layout. (160 bytes)
type CSRState struct {
	Mstatus  uint64
	Mcause   uint64
	Mepc     uint64
	Mtval    uint64
	Mtvec    uint64
	Mie      uint64
	Mip      uint64
	Mscratch uint64
	Medeleg  uint64
	Mideleg  uint64
	Satp     uint64
	Misa     uint64
	Mcycle   uint64
	Minstret uint64
	Mhartid  uint64
	Priv     uint64
	_        [4]uint64
}

// ArchVecRegState snapshots the vector register file plus per-register
// version counters and vtype context. At 1360 bytes it is the largest event,
// 170× the smallest (LrSc, 8 bytes) — the structural diversity motivating
// Batch (paper Fig. 4).
type ArchVecRegState struct {
	VReg [32][4]uint64 // 32 regs × 256-bit
	Ver  [32]uint64    // per-register write version
	Ctx  [10]uint64    // vtype/vl/vstart context captured with the snapshot
}

// VecCSRState snapshots the vector CSRs. (56 bytes)
type VecCSRState struct {
	Vstart, Vxsat, Vxrm, Vcsr, Vl, Vtype, Vlenb uint64
}

// FpCSRState snapshots fcsr. (8 bytes)
type FpCSRState struct {
	Fcsr uint64
}

// HCSRState snapshots the hypervisor CSR group. (96 bytes)
type HCSRState struct {
	Hstatus, Hedeleg, Hideleg, Htval, Htinst, Hgatp uint64
	Vsstatus, Vstvec, Vsepc, Vscause                uint64
	_                                               [2]uint64
}

// DebugCSRState snapshots debug-mode CSRs. (48 bytes)
type DebugCSRState struct {
	Dcsr, Dpc, Dscratch0, Dscratch1, Tselect, Tdata uint64
}

// TriggerCSRState snapshots trigger CSRs. (64 bytes)
type TriggerCSRState struct {
	Tdata1, Tdata2, Tdata3, Tinfo, Tcontrol, Mcontext, Scontext, Hcontext uint64
}

// Load reports a committed load. MMIO loads are NDEs whose Data must be
// forced into the REF. (40 bytes)
type Load struct {
	PAddr  uint64
	VAddr  uint64
	Data   uint64
	Mask   uint64
	OpType uint8
	FuType uint8
	MMIO   uint8
	_      [5]uint8
}

// NDE implements NonDeterministic.
func (l *Load) NDE() bool { return l.MMIO != 0 }

// Store reports a committed store. (32 bytes)
type Store struct {
	Addr  uint64
	VAddr uint64
	Data  uint64
	Mask  uint8
	MMIO  uint8
	_     [6]uint8
}

// Atomic reports an AMO or LR/SC data path result. (48 bytes)
type Atomic struct {
	Addr   uint64
	Data   uint64
	Result uint64
	Mask   uint64
	FuOp   uint8
	_      [7]uint8
	Old    uint64
}

// Sbuffer reports a store-buffer line drain. (80 bytes)
type Sbuffer struct {
	Addr uint64
	Mask uint64
	Data [64]uint8
}

// L1TLB reports an L1 TLB fill. (32 bytes)
type L1TLB struct {
	VPN   uint64
	PPN   uint64
	Satp  uint64
	Perm  uint8
	Level uint8
	_     [6]uint8
}

// L2TLB reports an L2 TLB (page-walk) fill. (48 bytes)
type L2TLB struct {
	VPN   uint64
	PPN   uint64
	GVPN  uint64
	Satp  uint64
	Vmid  uint64
	Perm  uint8
	Level uint8
	GPerm uint8
	_     [5]uint8
}

// Refill reports a cache line refill with its data. (72 bytes)
type Refill struct {
	Addr uint64
	Data [8]uint64
}

// LrSc reports an LR/SC reservation outcome. At 8 bytes it is the smallest
// event. (8 bytes)
type LrSc struct {
	Valid   uint8
	Success uint8
	_       [6]uint8
}

// CMO reports a cache-maintenance operation. (16 bytes)
type CMO struct {
	Addr uint64
	Op   uint8
	_    [7]uint8
}

// VecCommit reports a retired vector instruction. (24 bytes)
type VecCommit struct {
	PC    uint64
	Instr uint32
	VdIdx uint8
	_     [3]uint8
	Vl    uint64
}

// VecWriteback reports a vector register writeback value. (40 bytes)
type VecWriteback struct {
	VdIdx uint8
	_     [7]uint8
	Data  [4]uint64
}

// VecMem reports a vector memory access. (56 bytes)
type VecMem struct {
	Addr   uint64
	Mask   uint64
	Data   [4]uint64
	Stride uint64
}

// HTrap reports a trap taken while virtualized. (40 bytes)
type HTrap struct {
	PC, Cause, Htval, Htinst, Hstatus uint64
}

// GuestPageFault reports a guest-stage translation fault. (32 bytes)
type GuestPageFault struct {
	GVA   uint64
	GPA   uint64
	Cause uint64
	Instr uint32
	_     uint32
}

// VstartUpdate reports a vstart CSR change from a vector trap. (16 bytes)
type VstartUpdate struct {
	Old uint64
	New uint64
}

// HLoad reports a hypervisor guest-load (hlv) result. (32 bytes)
type HLoad struct {
	VAddr  uint64
	GPAddr uint64
	Data   uint64
	Size   uint8
	_      [7]uint8
}

// VirtualInterrupt reports a virtual interrupt injection. Always an NDE.
// (24 bytes)
type VirtualInterrupt struct {
	Cause  uint64
	PC     uint64
	HartID uint64
}

// VecExceptionTrack reports vector exception bookkeeping. (32 bytes)
type VecExceptionTrack struct {
	PC     uint64
	Vstart uint64
	Cause  uint64
	Elem   uint32
	_      uint32
}

// Kind implementations.

// Kind implements Event.
func (*InstrCommit) Kind() Kind { return KindInstrCommit }

// Kind implements Event.
func (*Trap) Kind() Kind { return KindTrap }

// Kind implements Event.
func (*Exception) Kind() Kind { return KindException }

// Kind implements Event.
func (*Interrupt) Kind() Kind { return KindInterrupt }

// NDE implements NonDeterministic: interrupts are always NDEs.
func (*Interrupt) NDE() bool { return true }

// Kind implements Event.
func (*Redirect) Kind() Kind { return KindRedirect }

// Kind implements Event.
func (*ArchIntRegState) Kind() Kind { return KindArchIntRegState }

// Kind implements Event.
func (*ArchFpRegState) Kind() Kind { return KindArchFpRegState }

// Kind implements Event.
func (*CSRState) Kind() Kind { return KindCSRState }

// Kind implements Event.
func (*ArchVecRegState) Kind() Kind { return KindArchVecRegState }

// Kind implements Event.
func (*VecCSRState) Kind() Kind { return KindVecCSRState }

// Kind implements Event.
func (*FpCSRState) Kind() Kind { return KindFpCSRState }

// Kind implements Event.
func (*HCSRState) Kind() Kind { return KindHCSRState }

// Kind implements Event.
func (*DebugCSRState) Kind() Kind { return KindDebugCSRState }

// Kind implements Event.
func (*TriggerCSRState) Kind() Kind { return KindTriggerCSRState }

// Kind implements Event.
func (*Load) Kind() Kind { return KindLoad }

// Kind implements Event.
func (*Store) Kind() Kind { return KindStore }

// Kind implements Event.
func (*Atomic) Kind() Kind { return KindAtomic }

// Kind implements Event.
func (*Sbuffer) Kind() Kind { return KindSbuffer }

// Kind implements Event.
func (*L1TLB) Kind() Kind { return KindL1TLB }

// Kind implements Event.
func (*L2TLB) Kind() Kind { return KindL2TLB }

// Kind implements Event.
func (*Refill) Kind() Kind { return KindRefill }

// Kind implements Event.
func (*LrSc) Kind() Kind { return KindLrSc }

// Kind implements Event.
func (*CMO) Kind() Kind { return KindCMO }

// Kind implements Event.
func (*VecCommit) Kind() Kind { return KindVecCommit }

// Kind implements Event.
func (*VecWriteback) Kind() Kind { return KindVecWriteback }

// Kind implements Event.
func (*VecMem) Kind() Kind { return KindVecMem }

// Kind implements Event.
func (*HTrap) Kind() Kind { return KindHTrap }

// Kind implements Event.
func (*GuestPageFault) Kind() Kind { return KindGuestPageFault }

// Kind implements Event.
func (*VstartUpdate) Kind() Kind { return KindVstartUpdate }

// Kind implements Event.
func (*HLoad) Kind() Kind { return KindHLoad }

// Kind implements Event.
func (*VirtualInterrupt) Kind() Kind { return KindVirtualInterrupt }

// NDE implements NonDeterministic: virtual interrupts are always NDEs.
func (*VirtualInterrupt) NDE() bool { return true }

// Kind implements Event.
func (*VecExceptionTrack) Kind() Kind { return KindVecExceptionTrack }
