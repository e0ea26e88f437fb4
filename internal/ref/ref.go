// Package ref implements the golden reference model (REF): an instruction
// set simulator in the role NEMU/Spike play for DiffTest (paper §2.2).
//
// The REF executes the same initial memory image as the DUT, is synchronized
// with the DUT's non-deterministic events (MMIO results, interrupts), and
// exposes compensation-log checkpoints so Replay can revert it to re-check
// fused events at instruction granularity (paper §4.4).
package ref

import (
	"repro/internal/arch"
	"repro/internal/mem"
)

// Mark is a checkpoint token. Reverting to a Mark restores the exact
// architectural and memory state the model had when the Mark was taken.
type Mark struct {
	logPos   int
	instrRet uint64
	pc       uint64
}

// InstrRet returns the retired-instruction count at the checkpoint.
func (mk Mark) InstrRet() uint64 { return mk.instrRet }

// Ref is the reference model.
type Ref struct {
	M *arch.Machine

	trimmed int // compensation entries discarded by TrimBefore
}

// New builds a reference model over its own clone of the initial memory
// image. Compensation logging starts with the first Checkpoint: a model that
// is never checkpointed can never be reverted, so it keeps no log at all.
func New(image *mem.Memory) *Ref {
	return &Ref{M: arch.NewMachine(image.Clone())}
}

// Step executes one instruction.
func (r *Ref) Step() arch.Exec { return r.M.Step() }

// Skip retires the next instruction without executing it, forcing the DUT's
// writeback — used for MMIO instructions (the DiffTest "skip" mechanism).
func (r *Ref) Skip(wroteInt bool, wdest uint8, wdata uint64) {
	r.M.SkipInstr(wroteInt, wdest, wdata)
}

// TakeInterrupt forces the interrupt trap the DUT reported.
func (r *Ref) TakeInterrupt(cause uint64) { r.M.TakeInterrupt(cause) }

// InstrRet returns the number of retired instructions.
func (r *Ref) InstrRet() uint64 { return r.M.InstrRet }

// PC returns the current program counter.
func (r *Ref) PC() uint64 { return r.M.State.PC }

// Checkpoint records the current position in the compensation log and turns
// logging on: Revert only ever targets a Mark, so nothing older than the
// first one is needed.
func (r *Ref) Checkpoint() Mark {
	r.M.Log.Enable()
	return Mark{logPos: r.M.Log.Mark() + r.trimmed, instrRet: r.M.InstrRet, pc: r.M.State.PC}
}

// Revert rolls the model back to mk by replaying compensation entries in
// reverse — the lightweight alternative to full snapshots (paper §4.4).
func (r *Ref) Revert(mk Mark) {
	r.M.Log.RevertTo(r.M, mk.logPos-r.trimmed)
	r.M.InstrRet = mk.instrRet
}

// TrimBefore discards compensation entries older than mk, bounding memory.
// Marks older than mk become unusable.
func (r *Ref) TrimBefore(mk Mark) {
	r.trimmed += r.M.Log.TrimBefore(mk.logPos - r.trimmed)
}

// LogLen reports the number of buffered compensation entries.
func (r *Ref) LogLen() int { return r.M.Log.Len() }

// Snapshot is a full deep copy of the model — the expensive debugging
// baseline that Replay's compensation strategy replaces (paper Fig. 10).
type Snapshot struct {
	State    arch.State
	Mem      *mem.Memory
	InstrRet uint64
}

// TakeSnapshot deep-copies the model's state and memory.
func (r *Ref) TakeSnapshot() Snapshot {
	return Snapshot{State: r.M.State.Clone(), Mem: r.M.Mem.Clone(), InstrRet: r.M.InstrRet}
}

// RestoreSnapshot reinstates a full snapshot, invalidating the compensation
// log and any outstanding Marks (logging resumes at the next Checkpoint).
func (r *Ref) RestoreSnapshot(s Snapshot) {
	r.M.State = s.State.Clone()
	r.M.Mem = s.Mem.Clone()
	r.M.InstrRet = s.InstrRet
	r.M.Log = arch.CompLog{}
	r.trimmed = 0
}
