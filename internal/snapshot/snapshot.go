// Package snapshot builds register/CSR-state verification events from an
// architectural machine. The DUT monitor and the software checker build
// snapshots with the same functions — one constructor per kind, returning a
// value — so any state divergence between the two machines shows up as an
// event mismatch. The DUT boxes the value into the event it emits; the
// checker encodes it straight into a reusable buffer (AppendState).
package snapshot

import (
	"repro/internal/arch"
	"repro/internal/event"
	"repro/internal/isa"
)

// IntRegState snapshots the integer register file.
func IntRegState(m *arch.Machine) event.ArchIntRegState {
	return event.ArchIntRegState{GPR: m.State.GPR}
}

// FpRegState snapshots the floating-point register file.
func FpRegState(m *arch.Machine) event.ArchFpRegState {
	return event.ArchFpRegState{FPR: m.State.FPR}
}

// CSRState snapshots the machine-mode CSR group.
//
// mip is deliberately omitted (reported as zero): it reflects live device
// state that the reference model cannot reproduce; interrupt delivery is
// instead verified through Interrupt NDE synchronization, as in DiffTest.
func CSRState(m *arch.Machine) event.CSRState {
	s := &m.State
	return event.CSRState{
		Mstatus:  s.CSRVal(isa.CSRMstatus),
		Mcause:   s.CSRVal(isa.CSRMcause),
		Mepc:     s.CSRVal(isa.CSRMepc),
		Mtval:    s.CSRVal(isa.CSRMtval),
		Mtvec:    s.CSRVal(isa.CSRMtvec),
		Mie:      s.CSRVal(isa.CSRMie),
		Mip:      0,
		Mscratch: s.CSRVal(isa.CSRMscratch),
		Medeleg:  s.CSRVal(isa.CSRMedeleg),
		Mideleg:  s.CSRVal(isa.CSRMideleg),
		Satp:     s.CSRVal(isa.CSRSatp),
		Misa:     s.CSRVal(isa.CSRMisa),
		Mcycle:   s.CSRVal(isa.CSRMcycle),
		Minstret: s.CSRVal(isa.CSRMinstret),
		Mhartid:  s.CSRVal(isa.CSRMhartid),
		Priv:     s.Priv,
	}
}

// VecRegState snapshots the vector register file.
func VecRegState(m *arch.Machine) event.ArchVecRegState {
	ev := event.ArchVecRegState{VReg: m.State.VReg}
	ev.Ctx[0] = m.State.CSRVal(isa.CSRVl)
	ev.Ctx[1] = m.State.CSRVal(isa.CSRVtype)
	ev.Ctx[2] = m.State.CSRVal(isa.CSRVstart)
	return ev
}

// VecCSRState snapshots the vector CSRs.
func VecCSRState(m *arch.Machine) event.VecCSRState {
	s := &m.State
	return event.VecCSRState{
		Vstart: s.CSRVal(isa.CSRVstart),
		Vxsat:  s.CSRVal(isa.CSRVxsat),
		Vxrm:   s.CSRVal(isa.CSRVxrm),
		Vcsr:   s.CSRVal(isa.CSRVcsr),
		Vl:     s.CSRVal(isa.CSRVl),
		Vtype:  s.CSRVal(isa.CSRVtype),
		Vlenb:  s.CSRVal(isa.CSRVlenb),
	}
}

// FpCSRState snapshots fcsr.
func FpCSRState(m *arch.Machine) event.FpCSRState {
	return event.FpCSRState{Fcsr: m.State.CSRVal(isa.CSRFcsr)}
}

// HCSRState snapshots the hypervisor CSR group.
func HCSRState(m *arch.Machine) event.HCSRState {
	s := &m.State
	return event.HCSRState{
		Hstatus:  s.CSRVal(isa.CSRHstatus),
		Hedeleg:  s.CSRVal(isa.CSRHedeleg),
		Hideleg:  s.CSRVal(isa.CSRHideleg),
		Htval:    s.CSRVal(isa.CSRHtval),
		Htinst:   s.CSRVal(isa.CSRHtinst),
		Hgatp:    s.CSRVal(isa.CSRHgatp),
		Vsstatus: s.CSRVal(isa.CSRVsstatus),
		Vstvec:   s.CSRVal(isa.CSRVstvec),
		Vsepc:    s.CSRVal(isa.CSRVsepc),
		Vscause:  s.CSRVal(isa.CSRVscause),
	}
}

// DebugCSRState snapshots the debug CSR group. The models implement no debug
// mode, so the snapshot is all-zero unless a bug corrupts it.
func DebugCSRState(m *arch.Machine) event.DebugCSRState {
	return event.DebugCSRState{}
}

// TriggerCSRState snapshots the trigger CSR group (all-zero, as above).
func TriggerCSRState(m *arch.Machine) event.TriggerCSRState {
	return event.TriggerCSRState{}
}

// AppendState appends the wire encoding of m's snapshot of kind k to dst,
// with no heap event in between — the checker's side of a wire-space state
// compare. The second result is false, and dst is returned unchanged, for a
// kind that is not an architectural-state snapshot.
func AppendState(k event.Kind, m *arch.Machine, dst []byte) ([]byte, bool) {
	switch k {
	case event.KindArchIntRegState:
		ev := IntRegState(m)
		return ev.AppendTo(dst), true
	case event.KindArchFpRegState:
		ev := FpRegState(m)
		return ev.AppendTo(dst), true
	case event.KindCSRState:
		ev := CSRState(m)
		return ev.AppendTo(dst), true
	case event.KindArchVecRegState:
		ev := VecRegState(m)
		return ev.AppendTo(dst), true
	case event.KindVecCSRState:
		ev := VecCSRState(m)
		return ev.AppendTo(dst), true
	case event.KindFpCSRState:
		ev := FpCSRState(m)
		return ev.AppendTo(dst), true
	case event.KindHCSRState:
		ev := HCSRState(m)
		return ev.AppendTo(dst), true
	case event.KindDebugCSRState:
		ev := DebugCSRState(m)
		return ev.AppendTo(dst), true
	case event.KindTriggerCSRState:
		ev := TriggerCSRState(m)
		return ev.AppendTo(dst), true
	default:
		// Not an architectural-state snapshot kind.
		return dst, false
	}
}

// SnapshotKinds lists the event kinds that AppendState can encode.
var SnapshotKinds = []event.Kind{
	event.KindArchIntRegState, event.KindArchFpRegState, event.KindCSRState,
	event.KindArchVecRegState, event.KindVecCSRState, event.KindFpCSRState,
	event.KindHCSRState, event.KindDebugCSRState, event.KindTriggerCSRState,
}
