package isa

import "fmt"

// Control and status register addresses. The subset mirrors the CSRs whose
// state the DiffTest-H verification events compare: machine-mode trap CSRs,
// counters, the floating-point CSR, the vector CSRs, and a hypervisor group.
const (
	CSRFflags   uint16 = 0x001
	CSRFrm      uint16 = 0x002
	CSRFcsr     uint16 = 0x003
	CSRVstart   uint16 = 0x008
	CSRVxsat    uint16 = 0x009
	CSRVxrm     uint16 = 0x00A
	CSRVcsr     uint16 = 0x00F
	CSRSatp     uint16 = 0x180
	CSRVsstatus uint16 = 0x200
	CSRVstvec   uint16 = 0x205
	CSRVsepc    uint16 = 0x241
	CSRVscause  uint16 = 0x242
	CSRMstatus  uint16 = 0x300
	CSRMisa     uint16 = 0x301
	CSRMedeleg  uint16 = 0x302
	CSRMideleg  uint16 = 0x303
	CSRMie      uint16 = 0x304
	CSRMtvec    uint16 = 0x305
	CSRMscratch uint16 = 0x340
	CSRMepc     uint16 = 0x341
	CSRMcause   uint16 = 0x342
	CSRMtval    uint16 = 0x343
	CSRMip      uint16 = 0x344
	CSRHstatus  uint16 = 0x600
	CSRHedeleg  uint16 = 0x602
	CSRHideleg  uint16 = 0x603
	CSRHtval    uint16 = 0x643
	CSRHtinst   uint16 = 0x64A
	CSRHgatp    uint16 = 0x680
	CSRMcycle   uint16 = 0xB00
	CSRMinstret uint16 = 0xB02
	CSRVl       uint16 = 0xC20
	CSRVtype    uint16 = 0xC21
	CSRVlenb    uint16 = 0xC22
	CSRMhartid  uint16 = 0xF14
)

// KnownCSRs lists every CSR the reference model and DUT implement, in
// ascending address order. The order is the canonical layout of the CSRState
// verification event.
var KnownCSRs = []uint16{
	CSRFflags, CSRFrm, CSRFcsr,
	CSRVstart, CSRVxsat, CSRVxrm, CSRVcsr,
	CSRSatp,
	CSRVsstatus, CSRVstvec, CSRVsepc, CSRVscause,
	CSRMstatus, CSRMisa, CSRMedeleg, CSRMideleg, CSRMie, CSRMtvec,
	CSRMscratch, CSRMepc, CSRMcause, CSRMtval, CSRMip,
	CSRHstatus, CSRHedeleg, CSRHideleg, CSRHtval, CSRHtinst, CSRHgatp,
	CSRMcycle, CSRMinstret,
	CSRVl, CSRVtype, CSRVlenb,
	CSRMhartid,
}

var csrNames = map[uint16]string{
	CSRFflags: "fflags", CSRFrm: "frm", CSRFcsr: "fcsr",
	CSRVstart: "vstart", CSRVxsat: "vxsat", CSRVxrm: "vxrm", CSRVcsr: "vcsr",
	CSRSatp:     "satp",
	CSRVsstatus: "vsstatus", CSRVstvec: "vstvec", CSRVsepc: "vsepc", CSRVscause: "vscause",
	CSRMstatus: "mstatus", CSRMisa: "misa", CSRMedeleg: "medeleg", CSRMideleg: "mideleg",
	CSRMie: "mie", CSRMtvec: "mtvec", CSRMscratch: "mscratch", CSRMepc: "mepc",
	CSRMcause: "mcause", CSRMtval: "mtval", CSRMip: "mip",
	CSRHstatus: "hstatus", CSRHedeleg: "hedeleg", CSRHideleg: "hideleg",
	CSRHtval: "htval", CSRHtinst: "htinst", CSRHgatp: "hgatp",
	CSRMcycle: "mcycle", CSRMinstret: "minstret",
	CSRVl: "vl", CSRVtype: "vtype", CSRVlenb: "vlenb",
	CSRMhartid: "mhartid",
}

// CSRName returns the assembler name for a CSR address.
func CSRName(addr uint16) string {
	if n, ok := csrNames[addr]; ok {
		return n
	}
	return fmt.Sprintf("csr(%#x)", addr)
}

// IsKnownCSR reports whether addr is implemented by the models.
func IsKnownCSR(addr uint16) bool {
	_, ok := csrNames[addr]
	return ok
}

// Exception cause codes (mcause values for synchronous exceptions).
const (
	ExcInstrAddrMisaligned uint64 = 0
	ExcIllegalInstr        uint64 = 2
	ExcBreakpoint          uint64 = 3
	ExcLoadAddrMisaligned  uint64 = 4
	ExcLoadAccessFault     uint64 = 5
	ExcStoreAddrMisaligned uint64 = 6
	ExcStoreAccessFault    uint64 = 7
	ExcEcallM              uint64 = 11
	ExcInstrPageFault      uint64 = 12
	ExcLoadPageFault       uint64 = 13
	ExcStorePageFault      uint64 = 15
	ExcGuestLoadPageFault  uint64 = 21
	ExcGuestStorePageFault uint64 = 23
)

// Interrupt cause codes (mcause values with the interrupt bit set).
const (
	IntSoftwareM uint64 = 3
	IntTimerM    uint64 = 7
	IntExternalM uint64 = 11
	IntVirtual   uint64 = 10 // stand-in for a virtual/guest external interrupt
)

// InterruptBit is OR-ed into mcause for interrupt traps.
const InterruptBit uint64 = 1 << 63
