package squash

import (
	"fmt"

	"repro/internal/checker"
	"repro/internal/derive"
	"repro/internal/event"
	"repro/internal/wire"
)

// Desquasher is the software-side counterpart of the Fuser: it restores the
// checking order from order tags (paper §4.3 "Reordering"), completes
// differenced events from the last-seen instance, steps the reference model
// through fused commit windows, and verifies the per-window digests.
type Desquasher struct {
	Chk     *checker.Checker
	Enabled [event.NumKinds]bool

	// OnWindow, when set, is invoked before each fused window is processed
	// — the co-simulation uses it to take the Replay checkpoint.
	OnWindow func(core uint8, fc wire.FusedCommit)

	cores []*coreDesq

	// LateSkipped counts tagged checks that arrived after the reference
	// model passed their tag and were completed but not compared (rare;
	// only possible around end-of-run flushes).
	LateSkipped uint64
}

// coreDesq is one core's reorder state. Tagged encodings are owned here:
// each NDE or completed diff is copied into a buffer taken from free,
// queued as a record whose Seq is its tag, checked, and returned to free —
// the checker keeps nothing after Process — so a core runs without
// allocating once its free lists are warm. lastSeen holds separate copies,
// the completion bases for diffs, which queued records never alias.
type coreDesq struct {
	cc        *checker.CoreChecker
	lastSeen  [event.NumKinds][]byte
	free      [event.NumKinds][][]byte
	queue     []event.Record
	digestAcc derive.Digest

	// lastWindow tracks the most recent fused window for Replay.
	lastWindow wire.FusedCommit
}

// NewDesquasher wraps a checker.
func NewDesquasher(chk *checker.Checker, enabled [event.NumKinds]bool) *Desquasher {
	d := &Desquasher{Chk: chk, Enabled: enabled}
	for _, cc := range chk.Cores {
		d.cores = append(d.cores, &coreDesq{cc: cc})
	}
	return d
}

// LastWindow returns the most recent fused window processed for a core —
// Replay's range determination input.
func (d *Desquasher) LastWindow(core uint8) wire.FusedCommit {
	return d.cores[core].lastWindow
}

// Process consumes one wire item in stream order.
func (d *Desquasher) Process(it wire.Item) *checker.Mismatch {
	if int(it.Core) >= len(d.cores) {
		return &checker.Mismatch{Core: it.Core, Detail: "item for unknown core"}
	}
	cd := d.cores[it.Core]

	switch {
	case it.IsNDE():
		k, _ := it.Kind()
		tag, enc, err := wire.SplitNDE(it)
		if err != nil {
			return &checker.Mismatch{Core: it.Core, Detail: err.Error()}
		}
		if stateKind(k) {
			// First-instance state snapshot: seed the completion base.
			cd.lastSeen[k] = append(cd.lastSeen[k][:0], enc...)
		}
		return d.handleTagged(cd, event.Record{Seq: tag, Core: it.Core, Kind: k, Data: append(cd.take(k), enc...)})

	case it.Type >= wire.TypeDiffBase && it.Type < wire.TypeInvalid:
		k, _ := it.Kind()
		tag, enc, err := wire.ApplyDiff(cd.take(k), it, cd.lastSeen[k])
		if err != nil {
			cd.recycle(k, enc)
			return &checker.Mismatch{Core: it.Core, Kind: k, Detail: err.Error()}
		}
		cd.lastSeen[k] = append(cd.lastSeen[k][:0], enc...)
		return d.handleTagged(cd, event.Record{Seq: tag, Core: it.Core, Kind: k, Data: enc})

	case it.IsFused():
		fc, err := wire.DecodeFused(it)
		if err != nil {
			return &checker.Mismatch{Core: it.Core, Detail: err.Error()}
		}
		cd.lastWindow = fc
		return d.runFused(cd, fc)

	case it.Type == wire.TypeDigest:
		count, sum, err := wire.DecodeDigest(it)
		if err != nil {
			return &checker.Mismatch{Core: it.Core, Detail: err.Error()}
		}
		want := derive.Digest{Count: count, Sum: sum}
		got := cd.digestAcc
		cd.digestAcc = derive.Digest{}
		if !got.Equal(want) {
			return cd.cc.FailFused(cd.cc.InstrRet(),
				fmt.Sprintf("window event digest: DUT (n=%d,%#x) REF (n=%d,%#x)",
					want.Count, want.Sum, got.Count, got.Sum))
		}
		return nil

	default: // raw item (Trap and friends)
		if it.Type >= wire.TypeNDEBase {
			return &checker.Mismatch{Core: it.Core, Detail: fmt.Sprintf("wire: item type %d is not raw", it.Type)}
		}
		m, err := d.Chk.ProcessItem(it.Core, event.Kind(it.Type), it.Payload)
		if err != nil {
			return &checker.Mismatch{Core: it.Core, Detail: err.Error()}
		}
		return m
	}
}

// take returns an empty buffer for an encoding of kind k: a checked
// record's buffer from the free list, or a new one while the list is cold.
func (cd *coreDesq) take(k event.Kind) []byte {
	if n := len(cd.free[k]); n > 0 {
		b := cd.free[k][n-1]
		cd.free[k] = cd.free[k][:n-1]
		return b[:0]
	}
	return make([]byte, 0, event.SizeOf(k))
}

// recycle returns a buffer nothing references any more to its free list.
func (cd *coreDesq) recycle(k event.Kind, b []byte) {
	cd.free[k] = append(cd.free[k], b)
}

// handleTagged processes a tagged item now if the reference model is at its
// tag, queues it if the tag is ahead, or completes-without-checking if the
// tag was already passed (possible only for state/hierarchy checks around
// end-of-run flushes).
func (d *Desquasher) handleTagged(cd *coreDesq, rec event.Record) *checker.Mismatch {
	cur := cd.cc.InstrRet()
	switch {
	case rec.Seq > cur:
		cd.queue = append(cd.queue, rec)
		return nil
	case rec.Seq == cur:
		return d.applyTagged(cd, rec)
	default: // late
		d.LateSkipped++
		cd.recycle(rec.Kind, rec.Data)
		return nil
	}
}

func (d *Desquasher) applyTagged(cd *coreDesq, rec event.Record) *checker.Mismatch {
	m := cd.cc.Process(rec)
	cd.recycle(rec.Kind, rec.Data)
	return m
}

// drainAt processes the first queued item whose tag equals the reference
// model's current position; it reports whether anything was processed.
func (d *Desquasher) drainAt(cd *coreDesq) (*checker.Mismatch, bool) {
	cur := cd.cc.InstrRet()
	for i, rec := range cd.queue {
		if rec.Seq == cur {
			cd.queue = append(cd.queue[:i], cd.queue[i+1:]...)
			return d.applyTagged(cd, rec), true
		}
	}
	return nil, false
}

// runFused steps the reference model through a fused commit window,
// applying order-tagged events at their exact positions and accumulating
// the derivable-event digest (paper Fig. 9, software side).
func (d *Desquasher) runFused(cd *coreDesq, fc wire.FusedCommit) *checker.Mismatch {
	if d.OnWindow != nil {
		d.OnWindow(cd.cc.Core, fc)
	}
	var pcDig, wDig uint64
	var lastPC uint64
	steps := uint64(0)

	for cd.cc.InstrRet() < fc.LastSeq {
		if m, acted := d.drainAt(cd); m != nil {
			return m
		} else if acted {
			continue
		}
		ex := cd.cc.StepDigest(&d.Enabled, &cd.digestAcc)
		pcDig ^= ex.PC
		if ex.WroteInt || ex.WroteFp {
			// Mirror the monitor's commit wdata rule (zero unless an
			// integer or FP register was written).
			wDig ^= ex.Wdata
		}
		lastPC = ex.PC
		steps++
	}
	// Boundary items tagged exactly at the window end (interrupts, skipped
	// commits, state diffs) apply now; skips may advance the position and
	// unlock further tags.
	for {
		m, acted := d.drainAt(cd)
		if m != nil {
			return m
		}
		if !acted {
			break
		}
	}

	if steps != fc.Count {
		return cd.cc.FailFused(fc.LastSeq,
			fmt.Sprintf("fused window stepped %d instructions, DUT fused %d", steps, fc.Count))
	}
	if pcDig != fc.PCDigest || lastPC != fc.LastPC {
		return cd.cc.FailFused(fc.LastSeq,
			fmt.Sprintf("fused PC check: DUT (last %#x, xor %#x) REF (last %#x, xor %#x)",
				fc.LastPC, fc.PCDigest, lastPC, pcDig))
	}
	if wDig != fc.WDigest {
		return cd.cc.FailFused(fc.LastSeq,
			fmt.Sprintf("fused writeback digest: DUT %#x REF %#x", fc.WDigest, wDig))
	}
	return nil
}

// Flush processes any remaining queued tagged items at end of run. Items
// still ahead of the reference model (events the DUT emitted after the trap)
// are dropped.
func (d *Desquasher) Flush() *checker.Mismatch {
	for _, cd := range d.cores {
		for {
			m, acted := d.drainAt(cd)
			if m != nil {
				return m
			}
			if !acted {
				break
			}
		}
		cd.queue = nil
	}
	return nil
}
