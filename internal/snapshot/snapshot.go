// Package snapshot encodes register/CSR-state verification events from an
// architectural machine. The DUT monitor and the software checker encode
// snapshots with the same functions — one Append encoder per kind — so any
// state divergence between the two machines shows up as an event mismatch.
// The DUT appends into its per-cycle arena; the checker into a reusable
// per-core buffer (AppendState).
package snapshot

import (
	"repro/internal/arch"
	"repro/internal/event"
	"repro/internal/isa"
)

// AppendIntRegState appends the integer register file snapshot to dst.
func AppendIntRegState(dst []byte, m *arch.Machine) []byte {
	ev := event.ArchIntRegState{GPR: m.State.GPR}
	return ev.AppendTo(dst)
}

// AppendFpRegState appends the floating-point register file snapshot to dst.
func AppendFpRegState(dst []byte, m *arch.Machine) []byte {
	ev := event.ArchFpRegState{FPR: m.State.FPR}
	return ev.AppendTo(dst)
}

// AppendCSRState appends the machine-mode CSR group snapshot to dst.
//
// mip is deliberately omitted (reported as zero): it reflects live device
// state that the reference model cannot reproduce; interrupt delivery is
// instead verified through Interrupt NDE synchronization, as in DiffTest.
func AppendCSRState(dst []byte, m *arch.Machine) []byte {
	s := &m.State
	ev := event.CSRState{
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
	return ev.AppendTo(dst)
}

// AppendVecRegState appends the vector register file snapshot to dst.
func AppendVecRegState(dst []byte, m *arch.Machine) []byte {
	ev := event.ArchVecRegState{VReg: m.State.VReg}
	ev.Ctx[0] = m.State.CSRVal(isa.CSRVl)
	ev.Ctx[1] = m.State.CSRVal(isa.CSRVtype)
	ev.Ctx[2] = m.State.CSRVal(isa.CSRVstart)
	return ev.AppendTo(dst)
}

// AppendVecCSRState appends the vector CSR snapshot to dst.
func AppendVecCSRState(dst []byte, m *arch.Machine) []byte {
	s := &m.State
	ev := event.VecCSRState{
		Vstart: s.CSRVal(isa.CSRVstart),
		Vxsat:  s.CSRVal(isa.CSRVxsat),
		Vxrm:   s.CSRVal(isa.CSRVxrm),
		Vcsr:   s.CSRVal(isa.CSRVcsr),
		Vl:     s.CSRVal(isa.CSRVl),
		Vtype:  s.CSRVal(isa.CSRVtype),
		Vlenb:  s.CSRVal(isa.CSRVlenb),
	}
	return ev.AppendTo(dst)
}

// AppendFpCSRState appends the fcsr snapshot to dst.
func AppendFpCSRState(dst []byte, m *arch.Machine) []byte {
	ev := event.FpCSRState{Fcsr: m.State.CSRVal(isa.CSRFcsr)}
	return ev.AppendTo(dst)
}

// AppendHCSRState appends the hypervisor CSR group snapshot to dst.
func AppendHCSRState(dst []byte, m *arch.Machine) []byte {
	s := &m.State
	ev := event.HCSRState{
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
	return ev.AppendTo(dst)
}

// AppendDebugCSRState appends the debug CSR group snapshot to dst. The
// models implement no debug mode, so the snapshot is all-zero unless a bug
// corrupts it.
func AppendDebugCSRState(dst []byte, m *arch.Machine) []byte {
	var ev event.DebugCSRState
	return ev.AppendTo(dst)
}

// AppendTriggerCSRState appends the trigger CSR group snapshot to dst
// (all-zero, as above).
func AppendTriggerCSRState(dst []byte, m *arch.Machine) []byte {
	var ev event.TriggerCSRState
	return ev.AppendTo(dst)
}

// appenders maps each architectural-state snapshot kind to its encoder.
var appenders = [event.NumKinds]func([]byte, *arch.Machine) []byte{
	event.KindArchIntRegState: AppendIntRegState,
	event.KindArchFpRegState:  AppendFpRegState,
	event.KindCSRState:        AppendCSRState,
	event.KindArchVecRegState: AppendVecRegState,
	event.KindVecCSRState:     AppendVecCSRState,
	event.KindFpCSRState:      AppendFpCSRState,
	event.KindHCSRState:       AppendHCSRState,
	event.KindDebugCSRState:   AppendDebugCSRState,
	event.KindTriggerCSRState: AppendTriggerCSRState,
}

// AppendState appends the wire encoding of m's snapshot of kind k to dst.
// The second result is false, and dst is returned unchanged, for a kind that
// is not an architectural-state snapshot.
func AppendState(k event.Kind, m *arch.Machine, dst []byte) ([]byte, bool) {
	if k >= event.NumKinds || appenders[k] == nil {
		return dst, false
	}
	return appenders[k](dst, m), true
}

// SnapshotKinds lists the event kinds that AppendState can encode.
var SnapshotKinds = []event.Kind{
	event.KindArchIntRegState, event.KindArchFpRegState, event.KindCSRState,
	event.KindArchVecRegState, event.KindVecCSRState, event.KindFpCSRState,
	event.KindHCSRState, event.KindDebugCSRState, event.KindTriggerCSRState,
}
