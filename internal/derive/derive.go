// Package derive encodes the deterministic, reference-derivable verification
// events for one executed instruction. The DUT monitor uses it to emit
// events, and the software checker uses it to recompute the same events from
// the reference model's execution — which is what allows Squash to fuse
// these events into a digest without losing verification coverage: the
// checker reproduces the digest independently and compares (paper §4.3).
//
// Events with DUT-specific timing (cache refills, TLB fills, store-buffer
// drains, redirects) are not derivable and are transmitted with order tags
// instead.
package derive

import (
	"repro/internal/arch"
	"repro/internal/event"
	"repro/internal/isa"
)

// AppendEvents encodes the derivable events for an executed instruction
// into a, in canonical checking order, as records stamped (seq, core). Kinds
// not set in on are skipped. vstartBefore is the vstart CSR value before the
// instruction executed.
func AppendEvents(a *event.Arena, seq uint64, core uint8, on *[event.NumKinds]bool,
	m *arch.Machine, ex *arch.Exec, vstartBefore uint64) {
	push := func(k event.Kind, enc []byte) {
		if on[k] {
			a.Push(seq, core, k, enc)
		}
	}

	if ex.Exception {
		exc := event.Exception{PC: ex.PC, Cause: ex.Cause, Tval: ex.Tval, Instr: ex.Instr}
		push(event.KindException, exc.AppendTo(a.Buf))
		if ex.Cause == isa.ExcGuestLoadPageFault || ex.Cause == isa.ExcGuestStorePageFault {
			gpf := event.GuestPageFault{GVA: ex.Tval, GPA: ex.Tval, Cause: ex.Cause, Instr: ex.Instr}
			push(event.KindGuestPageFault, gpf.AppendTo(a.Buf))
			ht := event.HTrap{
				PC: ex.PC, Cause: ex.Cause,
				Htval:   m.State.CSRVal(isa.CSRHtval),
				Htinst:  m.State.CSRVal(isa.CSRHtinst),
				Hstatus: m.State.CSRVal(isa.CSRHstatus),
			}
			push(event.KindHTrap, ht.AppendTo(a.Buf))
		}
	}

	if ex.Mem {
		mmio := uint8(0)
		if ex.MMIO {
			mmio = 1
		}
		cl := isa.ClassOf(ex.Inst.Op)
		switch {
		case ex.Atomic:
			ev := event.Atomic{
				Addr: ex.MemAddr, Data: ex.MemData, Result: ex.Wdata,
				Mask: ^uint64(0), FuOp: uint8(ex.Inst.Op), Old: ex.AtomicOld,
			}
			push(event.KindAtomic, ev.AppendTo(a.Buf))
		case cl == isa.ClassVecLoad || cl == isa.ClassVecStore:
			ev := event.VecMem{Addr: ex.MemAddr, Mask: ^uint64(0), Data: ex.VData, Stride: 8}
			push(event.KindVecMem, ev.AppendTo(a.Buf))
		case cl == isa.ClassHypLoad:
			ev := event.HLoad{VAddr: ex.MemAddr, GPAddr: ex.MemAddr, Data: ex.MemData, Size: uint8(ex.MemSize)}
			push(event.KindHLoad, ev.AppendTo(a.Buf))
		case ex.IsLoad:
			ev := event.Load{
				PAddr: ex.MemAddr, VAddr: ex.MemAddr, Data: ex.MemData,
				Mask: sizeMask(ex.MemSize), OpType: uint8(ex.Inst.Op),
				FuType: uint8(cl), MMIO: mmio,
			}
			push(event.KindLoad, ev.AppendTo(a.Buf))
		default:
			ev := event.Store{
				Addr: ex.MemAddr, VAddr: ex.MemAddr, Data: ex.MemData,
				Mask: uint8(ex.MemSize), MMIO: mmio,
			}
			push(event.KindStore, ev.AppendTo(a.Buf))
		}
		if ex.LrSc {
			succ := uint8(0)
			if ex.ScSuccess {
				succ = 1
			}
			ev := event.LrSc{Valid: 1, Success: succ}
			push(event.KindLrSc, ev.AppendTo(a.Buf))
		}
	}

	if ex.Vec {
		vc := event.VecCommit{PC: ex.PC, Instr: ex.Instr, VdIdx: ex.Wdest, Vl: ex.Vl}
		push(event.KindVecCommit, vc.AppendTo(a.Buf))
		if ex.WroteVec {
			wb := event.VecWriteback{VdIdx: ex.Wdest, Data: ex.VData}
			push(event.KindVecWriteback, wb.AppendTo(a.Buf))
		}
		if after := m.State.CSRVal(isa.CSRVstart); after != vstartBefore {
			vu := event.VstartUpdate{Old: vstartBefore, New: after}
			push(event.KindVstartUpdate, vu.AppendTo(a.Buf))
		}
		if ex.Exception {
			vt := event.VecExceptionTrack{PC: ex.PC, Vstart: m.State.CSRVal(isa.CSRVstart), Cause: ex.Cause, Elem: 0}
			push(event.KindVecExceptionTrack, vt.AppendTo(a.Buf))
		}
	}
}

func sizeMask(size int) uint64 {
	if size >= 8 {
		return ^uint64(0)
	}
	return 1<<(8*size) - 1
}

// Digest is an order-insensitive multiset digest over events: FNV-1a over
// each event's kind and wire encoding, combined by XOR. Squash transmits one
// digest per fusion window; the checker recomputes it from derived events.
type Digest struct {
	Count uint32
	Sum   uint64
}

// Add folds one event — kind k, wire encoding enc — into the digest.
func (d *Digest) Add(k event.Kind, enc []byte) {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h = (h ^ uint64(k)) * prime64
	for _, b := range enc {
		h = (h ^ uint64(b)) * prime64
	}
	d.Sum ^= h
	d.Count++
}

// Equal reports whether two digests match.
func (d Digest) Equal(o Digest) bool { return d.Count == o.Count && d.Sum == o.Sum }
