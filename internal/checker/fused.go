package checker

import (
	"repro/internal/arch"
	"repro/internal/derive"
	"repro/internal/event"
	"repro/internal/isa"
)

// Support for fused checking (Squash, paper §4.3): under fusion the checker
// steps the reference model through a window of instructions without
// per-instruction events, accumulating a digest of the derivable events that
// the hardware fused away. The digest, final PC, and PC XOR are compared at
// window boundaries; Replay recovers instruction-level detail on mismatch.

// InstrRet returns the number of instructions the reference model has
// retired — the checker's position in the global commit sequence.
func (cc *CoreChecker) InstrRet() uint64 { return cc.Ref.InstrRet() }

// StepDigest executes one instruction on the reference model, folding its
// derivable events (filtered by the monitored-kind set) into dig, and
// returns the execution record.
func (cc *CoreChecker) StepDigest(enabled *[event.NumKinds]bool, dig *derive.Digest) arch.Exec {
	cc.EventsChecked++
	vstart := cc.Ref.M.State.CSRVal(isa.CSRVstart)
	cc.lastExec = cc.Ref.Step()
	cc.derived.Reset()
	derive.AppendEvents(&cc.derived, 0, cc.Core, enabled, cc.Ref.M, &cc.lastExec, vstart)
	for _, r := range cc.derived.Recs {
		dig.Add(r.Kind, r.Data)
	}
	return cc.lastExec
}

// FailFused builds a fused-level mismatch (instruction detail lost; Replay
// re-checks the buffered unfused events).
func (cc *CoreChecker) FailFused(seq uint64, detail string) *Mismatch {
	return &Mismatch{
		Core: cc.Core, Seq: seq, Kind: event.KindInstrCommit,
		PC: cc.lastExec.PC, Detail: detail, Fused: true,
	}
}
