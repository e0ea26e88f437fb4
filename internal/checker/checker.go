// Package checker implements the software-side ISA checker: it drives the
// reference model from the DUT's verification events, synchronizes
// non-deterministic events, and compares architectural state after each
// instruction (paper §2.2). A mismatch aborts co-simulation with a detailed
// failure context; under Squash, the Replay unit then re-checks the original
// unfused events at instruction granularity.
package checker

import (
	"bytes"
	"fmt"

	"repro/internal/arch"
	"repro/internal/event"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/ref"
	"repro/internal/snapshot"
)

// Mismatch describes a detected divergence between DUT and REF.
type Mismatch struct {
	Core   uint8
	Seq    uint64
	Kind   event.Kind
	PC     uint64
	Detail string
	Fused  bool // detected on a fused event (instruction-level detail lost)
}

// Error implements error.
func (m *Mismatch) Error() string {
	where := "instruction"
	if m.Fused {
		where = "fused event"
	}
	return fmt.Sprintf("mismatch on %s: core %d seq %d pc %#x kind %v: %s",
		where, m.Core, m.Seq, m.PC, m.Kind, m.Detail)
}

// CoreChecker checks one hart against its own reference model.
type CoreChecker struct {
	Core uint8
	Ref  *ref.Ref

	lastExec arch.Exec // REF execution record for the current instruction
	trapSeen bool
	trapCode uint64

	// Coverage signal for the workload fuzzer (see coverage.go). covLast
	// and covAdj are the pair-tracking and trap-adjacency cursors.
	cov     Coverage
	covLast int
	covAdj  int

	// EventsChecked counts processed events (software-cost accounting).
	EventsChecked uint64
	BytesChecked  uint64

	// Per-call scratch: one decoded value per kind (process), the REF's
	// encoding a state compare lines up against the DUT's (checkState),
	// and the derived events a fused step folds into its digest
	// (StepDigest).
	scratch [event.NumKinds]event.Event
	refBuf  []byte
	derived event.Arena
}

// Checker verifies a multi-core DUT, one reference model per hart.
type Checker struct {
	Cores []*CoreChecker
}

// New builds a checker whose reference models start from the given image
// and per-core entry PCs — the same initial state as the DUT.
func New(image *mem.Memory, entries []uint64, cores int) *Checker {
	c := &Checker{}
	for i := 0; i < cores; i++ {
		r := ref.New(image)
		if i < len(entries) {
			r.M.State.PC = entries[i]
		}
		r.M.State.SetCSR(isa.CSRMhartid, uint64(i))
		c.Cores = append(c.Cores, &CoreChecker{Core: uint8(i), Ref: r})
	}
	return c
}

// Process dispatches a record to its core's checker.
func (c *Checker) Process(rec event.Record) *Mismatch {
	if int(rec.Core) >= len(c.Cores) {
		return &Mismatch{Core: rec.Core, Seq: rec.Seq, Detail: "record for unknown core"}
	}
	return c.Cores[rec.Core].Process(rec)
}

// ProcessItem checks one raw wire item — an event of kind k whose wire
// encoding is payload — on its core's checker: the payload size is checked,
// the payload is decoded into the core's scratch value for k, and state
// snapshots are compared against the REF in wire space. A malformed payload
// returns the *event.DecodeError event.Decode would.
//
// The checker keeps nothing from the call: neither payload nor the decoded
// value is referenced after it returns, so the caller may reuse both.
func (c *Checker) ProcessItem(core uint8, k event.Kind, payload []byte) (*Mismatch, error) {
	if err := checkSize(k, payload); err != nil {
		return nil, err
	}
	if int(core) >= len(c.Cores) {
		return &Mismatch{Core: core, Detail: "record for unknown core"}, nil
	}
	return c.Cores[core].process(event.Record{Core: core, Kind: k, Data: payload}), nil
}

// checkSize is event.Decode's validation: a known kind, and a payload of
// exactly its wire size.
func checkSize(k event.Kind, payload []byte) error {
	switch {
	case k >= event.NumKinds:
		return &event.DecodeError{Kind: k, Len: len(payload), Err: event.ErrUnknownKind}
	case len(payload) != event.SizeOf(k):
		return &event.DecodeError{Kind: k, Len: len(payload), Err: event.ErrPayloadSize}
	}
	return nil
}

// Finished reports whether a Trap event was observed and its code.
func (c *Checker) Finished() (bool, uint64) {
	for _, cc := range c.Cores {
		if cc.trapSeen {
			return true, cc.trapCode
		}
	}
	return false, 0
}

func (cc *CoreChecker) fail(rec event.Record, format string, args ...any) *Mismatch {
	seq := rec.Seq
	if seq == 0 {
		// Per-event transports do not carry sequence numbers; the checker's
		// own position identifies the instruction.
		seq = cc.Ref.InstrRet()
	}
	return &Mismatch{
		Core: cc.Core, Seq: seq, Kind: rec.Kind, PC: cc.lastExec.PC,
		Detail: fmt.Sprintf(format, args...),
	}
}

// Process checks one verification event in program order, through the
// same path as ProcessItem. For InstrCommit events it advances the reference
// model; for state and memory events it compares against the model's
// current state. A malformed encoding is reported as a mismatch.
func (cc *CoreChecker) Process(rec event.Record) *Mismatch {
	if err := checkSize(rec.Kind, rec.Data); err != nil {
		return &Mismatch{Core: cc.Core, Seq: rec.Seq, Kind: rec.Kind, Detail: err.Error()}
	}
	return cc.process(rec)
}

// process checks a record whose encoding has the kind's wire size: it is
// decoded into the core's scratch value for the kind, and state snapshots
// are compared in wire space.
func (cc *CoreChecker) process(rec event.Record) *Mismatch {
	ev := cc.scratch[rec.Kind]
	if ev == nil {
		ev = event.InfoOf(rec.Kind).New()
		cc.scratch[rec.Kind] = ev
	}
	if _, err := ev.DecodeFrom(rec.Data); err != nil {
		panic(err) // the size was checked; an encoding of k always decodes as k
	}
	cc.EventsChecked++
	cc.BytesChecked += uint64(len(rec.Data))
	cc.observe(ev)

	switch ev := ev.(type) {
	case *event.InstrCommit:
		return cc.processCommit(rec, ev)

	case *event.Interrupt:
		if pc := cc.Ref.PC(); pc != ev.PC {
			return cc.fail(rec, "interrupt at REF pc %#x, DUT pc %#x", pc, ev.PC)
		}
		cc.Ref.TakeInterrupt(ev.Cause)
		return nil

	case *event.VirtualInterrupt:
		// Informational: the paired Interrupt event performs the sync.
		return nil

	case *event.Exception:
		le := &cc.lastExec
		if !le.Exception || le.Cause != ev.Cause || le.Tval != ev.Tval {
			return cc.fail(rec, "exception cause/tval: DUT (%d,%#x) REF (%v,%d,%#x)",
				ev.Cause, ev.Tval, le.Exception, le.Cause, le.Tval)
		}
		return nil

	case *event.Redirect:
		if ev.Taken != 0 && cc.lastExec.NextPC != ev.Target {
			return cc.fail(rec, "redirect target %#x, REF next pc %#x", ev.Target, cc.lastExec.NextPC)
		}
		return nil

	case *event.Trap:
		cc.trapSeen, cc.trapCode = true, ev.Code
		return nil

	case *event.Load:
		if ev.MMIO != 0 {
			return nil // value already synchronized through the skipped commit
		}
		le := &cc.lastExec
		if !le.Mem || !le.IsLoad {
			return cc.fail(rec, "load event but REF executed no load")
		}
		if le.MemAddr != ev.PAddr || le.MemData != ev.Data {
			return cc.fail(rec, "load addr/data: DUT (%#x,%#x) REF (%#x,%#x)",
				ev.PAddr, ev.Data, le.MemAddr, le.MemData)
		}
		return nil

	case *event.Store:
		if ev.MMIO != 0 {
			return nil
		}
		le := &cc.lastExec
		if !le.Mem || le.IsLoad {
			return cc.fail(rec, "store event but REF executed no store")
		}
		if le.MemAddr != ev.Addr || le.MemData != ev.Data {
			return cc.fail(rec, "store addr/data: DUT (%#x,%#x) REF (%#x,%#x)",
				ev.Addr, ev.Data, le.MemAddr, le.MemData)
		}
		return nil

	case *event.Atomic:
		le := &cc.lastExec
		if !le.Atomic {
			return cc.fail(rec, "atomic event but REF executed no AMO")
		}
		if le.AtomicOld != ev.Old || le.MemData != ev.Data {
			return cc.fail(rec, "amo old/new: DUT (%#x,%#x) REF (%#x,%#x)",
				ev.Old, ev.Data, le.AtomicOld, le.MemData)
		}
		return nil

	case *event.LrSc:
		le := &cc.lastExec
		if !le.LrSc {
			return cc.fail(rec, "lr/sc event but REF executed none")
		}
		succ := uint8(0)
		if le.ScSuccess {
			succ = 1
		}
		if ev.Success != succ {
			return cc.fail(rec, "sc success: DUT %d REF %d", ev.Success, succ)
		}
		return nil

	case *event.Refill:
		return cc.checkLine(rec, ev.Addr, func(i int, want uint64) *Mismatch {
			if ev.Data[i] != want {
				return cc.fail(rec, "refill data[%d] at %#x: DUT %#x REF %#x", i, ev.Addr, ev.Data[i], want)
			}
			return nil
		})

	case *event.Sbuffer:
		var line [64]byte
		cc.Ref.M.Mem.ReadBytes(ev.Addr, line[:])
		for i, b := range ev.Data {
			if ev.Mask&(1<<(i/8)) != 0 && b != line[i] {
				return cc.fail(rec, "sbuffer byte %d at %#x: DUT %#x REF %#x", i, ev.Addr, b, line[i])
			}
		}
		return nil

	case *event.L1TLB:
		if ev.PPN != ev.VPN { // identity translation (satp=0 bare mode)
			return cc.fail(rec, "L1 TLB fill vpn %#x → ppn %#x, want identity", ev.VPN, ev.PPN)
		}
		return nil

	case *event.L2TLB:
		if ev.PPN != ev.VPN || ev.GVPN != ev.VPN {
			return cc.fail(rec, "L2 TLB fill vpn %#x → (ppn %#x, gvpn %#x), want identity", ev.VPN, ev.PPN, ev.GVPN)
		}
		return nil

	case *event.CMO:
		return nil // maintenance ops carry no architectural state

	case *event.VecCommit:
		le := &cc.lastExec
		if !le.Vec || le.Vl != ev.Vl {
			return cc.fail(rec, "vector commit vl: DUT %d REF (%v,%d)", ev.Vl, le.Vec, le.Vl)
		}
		return nil

	case *event.VecWriteback:
		le := &cc.lastExec
		if !le.WroteVec || le.VData != ev.Data {
			return cc.fail(rec, "vector writeback v%d: DUT %x REF %x", ev.VdIdx, ev.Data, le.VData)
		}
		return nil

	case *event.VecMem:
		le := &cc.lastExec
		if !le.Mem {
			return cc.fail(rec, "vector mem event but REF executed no access")
		}
		if le.MemAddr != ev.Addr {
			return cc.fail(rec, "vector mem addr: DUT %#x REF %#x", ev.Addr, le.MemAddr)
		}
		return nil

	case *event.HLoad:
		le := &cc.lastExec
		if !le.Mem || !le.IsLoad || le.MemData != ev.Data {
			return cc.fail(rec, "hypervisor load: DUT %#x REF %#x", ev.Data, le.MemData)
		}
		return nil

	case *event.GuestPageFault:
		le := &cc.lastExec
		if !le.Exception || le.Cause != ev.Cause {
			return cc.fail(rec, "guest page fault cause: DUT %d REF (%v,%d)", ev.Cause, le.Exception, le.Cause)
		}
		return nil

	case *event.HTrap:
		le := &cc.lastExec
		if !le.Exception || le.Cause != ev.Cause {
			return cc.fail(rec, "hypervisor trap cause: DUT %d REF %d", ev.Cause, le.Cause)
		}
		return nil

	case *event.VstartUpdate:
		if got := cc.Ref.M.State.CSRVal(isa.CSRVstart); ev.New != got {
			return cc.fail(rec, "vstart: DUT %d REF %d", ev.New, got)
		}
		return nil

	case *event.VecExceptionTrack:
		le := &cc.lastExec
		if !le.Exception {
			return cc.fail(rec, "vector exception track without REF exception")
		}
		return nil

	default:
		return cc.checkState(rec)
	}
}

// checkState compares a state snapshot in wire space: the REF's snapshot of
// the same kind is encoded into refBuf and compared byte for byte with the
// DUT's encoding. Padding is part of the compare; the codec always encodes
// it as zeros.
func (cc *CoreChecker) checkState(rec event.Record) *Mismatch {
	want, ok := snapshot.AppendState(rec.Kind, cc.Ref.M, cc.refBuf[:0])
	if !ok {
		return cc.fail(rec, "unhandled event kind")
	}
	cc.refBuf = want
	if !bytes.Equal(rec.Data, want) {
		return cc.fail(rec, "state snapshot diverged: %s", describeDiff(rec.Kind, rec.Data, want))
	}
	return nil
}

func (cc *CoreChecker) checkLine(rec event.Record, addr uint64, cmp func(int, uint64) *Mismatch) *Mismatch {
	for i := 0; i < 8; i++ {
		want := cc.Ref.M.Mem.Read(addr+uint64(i)*8, 8)
		if m := cmp(i, want); m != nil {
			return m
		}
	}
	return nil
}

func (cc *CoreChecker) processCommit(rec event.Record, ev *event.InstrCommit) *Mismatch {
	if ev.Flags&event.CommitSkip != 0 {
		// MMIO instruction: synchronize the DUT-observed result instead of
		// executing (the REF has no devices).
		cc.Ref.Skip(ev.Flags&event.CommitRfWen != 0, ev.Wdest, ev.Wdata)
		cc.lastExec = arch.Exec{PC: ev.PC, NextPC: ev.PC + 4, Mem: true, IsLoad: true,
			MemAddr: 0, MemData: ev.Wdata, MMIO: true}
		return nil
	}
	if pc := cc.Ref.PC(); pc != ev.PC {
		m := cc.fail(rec, "commit pc: DUT %#x REF %#x", ev.PC, pc)
		m.PC = ev.PC
		return m
	}
	cc.lastExec = cc.Ref.Step()
	le := &cc.lastExec
	cc.observeExec(le)

	if le.Instr != ev.Instr {
		return cc.fail(rec, "instruction word: DUT %#x REF %#x", ev.Instr, le.Instr)
	}
	switch {
	case ev.Flags&event.CommitRfWen != 0:
		if !le.WroteInt || le.Wdest != ev.Wdest || le.Wdata != ev.Wdata {
			return cc.fail(rec, "int writeback x%d=%#x, REF (%v,x%d=%#x)",
				ev.Wdest, ev.Wdata, le.WroteInt, le.Wdest, le.Wdata)
		}
	case ev.Flags&event.CommitFpWen != 0:
		if !le.WroteFp || le.Wdest != ev.Wdest || le.Wdata != ev.Wdata {
			return cc.fail(rec, "fp writeback f%d=%#x, REF (%v,f%d=%#x)",
				ev.Wdest, ev.Wdata, le.WroteFp, le.Wdest, le.Wdata)
		}
	default:
		if le.WroteInt && le.Wdest != 0 || le.WroteFp {
			return cc.fail(rec, "DUT commit wrote nothing, REF wrote a register")
		}
	}
	return nil
}

// describeDiff names the first differing 64-bit word of two encodings of
// kind k.
func describeDiff(k event.Kind, got, want []byte) string {
	for i := range got {
		if got[i] != want[i] {
			word := i / 8 * 8
			return fmt.Sprintf("%v word at byte %d: DUT %x REF %x",
				k, word, got[word:word+8], want[word:word+8])
		}
	}
	return "identical encodings"
}
