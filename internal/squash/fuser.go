// Package squash implements the Squash mechanism (paper §4.3): reducing
// data transmission volume by fusing verification events across instructions
// with the checking order decoupled from the transmission order.
//
// The hardware-side Fuser:
//   - fuses instruction commits into FusedCommit summaries (count, final PC,
//     PC digest);
//   - folds REF-derivable events (loads, stores, exceptions, vector
//     writebacks, ...) into a per-window digest the checker recomputes;
//   - schedules NDEs (interrupts, MMIO accesses) and other DUT-specific
//     events (refills, TLB fills, redirects) ahead with order tags, so they
//     never break fusion (order decoupling);
//   - keeps only the latest architectural-state snapshot per kind per window
//     and transmits it as a tagged difference against the previous
//     transmitted instance (differencing).
//
// The software-side Desquasher (desquash.go) restores the checking order
// from the tags and drives the checker.
//
// The order-coupled baseline (Config.CoupleOrder) reproduces existing
// fusion schemes: every NDE terminates the ongoing fusion window, which the
// paper shows causes frequent fusion breaks and a limited fusion ratio.
package squash

import (
	"repro/internal/derive"
	"repro/internal/event"
	"repro/internal/wire"
)

// Config tunes the fusion unit.
type Config struct {
	// MaxFuse is the fusion window size in commits (the window closes at
	// the end of the cycle in which it fills).
	MaxFuse int
	// CoupleOrder reproduces order-coupled fusion: NDEs break the window.
	CoupleOrder bool
	// StateFlushAge bounds how many cycles a pending state snapshot may
	// wait before being transmitted even without a window flush.
	StateFlushAge int
}

// DefaultConfig returns the paper-calibrated fusion configuration.
func DefaultConfig() Config {
	return Config{MaxFuse: 64, StateFlushAge: 64}
}

// Stats counts fusion behaviour (the Squash performance counters, §5).
type Stats struct {
	Windows      uint64 // fusion windows flushed
	FusedCommits uint64 // commits fused into windows
	Breaks       uint64 // NDE-induced window breaks (order-coupled mode)
	NDEsAhead    uint64 // events transmitted ahead with order tags
	Diffs        uint64 // differenced state events
	DiffBytes    uint64 // bytes transmitted for diffs
	RawState     uint64 // first-instance state events sent whole
}

// FusionRatio returns the mean number of commits per fused transfer.
func (s Stats) FusionRatio() float64 {
	if s.Windows == 0 {
		return 0
	}
	return float64(s.FusedCommits) / float64(s.Windows)
}

// Fuser is the per-core hardware-side fusion unit.
type Fuser struct {
	Cfg   Config
	Core  uint8
	Stats Stats

	fc         wire.FusedCommit
	windowOpen bool
	tokenSet   bool
	dig        derive.Digest

	// Per-kind state snapshots, owned copies: the latest one not yet
	// transmitted, and the last transmitted one (the differencing base,
	// nil until the kind is first sent).
	pend     [event.NumKinds]pendSnap
	npend    int
	stateAge int
	lastSent [event.NumKinds][]byte

	lastSkipSeq uint64
	haveSkip    bool

	// out and buf back the items a Cycle or Flush call returns — buf holds
	// their payloads — and are reused by the next call.
	out []wire.Item
	buf []byte
}

// pendSnap is a pending state snapshot: its encoding and order tag.
type pendSnap struct {
	data []byte
	seq  uint64
	ok   bool
}

// NewFuser builds a fusion unit for one core.
func NewFuser(cfg Config, core uint8) *Fuser {
	if cfg.MaxFuse <= 0 {
		cfg.MaxFuse = 64
	}
	if cfg.StateFlushAge <= 0 {
		cfg.StateFlushAge = 64
	}
	return &Fuser{Cfg: cfg, Core: core}
}

// stateKind reports whether k is an architectural-state snapshot kind.
func stateKind(k event.Kind) bool {
	return event.CategoryOf(k) == event.CatRegisterUpdate
}

// taggedKind reports whether k is a DUT-specific (non-derivable) event that
// is transmitted ahead with an order tag rather than fused.
func taggedKind(k event.Kind) bool {
	switch k {
	case event.KindRefill, event.KindCMO, event.KindL1TLB, event.KindL2TLB,
		event.KindSbuffer, event.KindRedirect:
		return true
	default:
		// Everything else is either fused state or derivable by the model.
		return false
	}
}

// Cycle processes one cycle's records for this core (with their replay
// tokens) and returns the wire items to transmit this cycle. The items are
// valid until the next Cycle or Flush call and while recs are: a raw item's
// payload is its record's encoding.
func (f *Fuser) Cycle(recs []event.Record, tokens []uint64) []wire.Item {
	f.out, f.buf = f.out[:0], f.buf[:0]
	slot := uint8(0)
	wantFlush := false

	for i, rec := range recs {
		k := rec.Kind
		if k == event.KindInstrCommit {
			slot++
		}
		if !f.tokenSet {
			f.fc.StartToken = tokens[i]
			f.tokenSet = true
		}

		switch {
		case k == event.KindInstrCommit:
			var ic event.InstrCommit
			// Monitor records carry their kind's wire size, so the decode
			// cannot fail.
			_, _ = ic.DecodeFrom(rec.Data)
			if ic.Flags&event.CommitSkip != 0 {
				// MMIO instruction: NDE — ahead with a pre-apply tag.
				f.lastSkipSeq, f.haveSkip = rec.Seq, true
				f.emitNDE(slot, rec.Seq-1, rec)
				if f.Cfg.CoupleOrder {
					f.breakWindow(slot)
				}
				continue
			}
			f.windowOpen = true
			f.fc.Count++
			f.fc.LastSeq = rec.Seq
			f.fc.LastPC = ic.PC
			f.fc.PCDigest ^= ic.PC
			f.fc.WDigest ^= ic.Wdata
			if f.fc.Count >= uint64(f.Cfg.MaxFuse) {
				wantFlush = true
			}

		case event.IsNDEEncoding(k, rec.Data):
			f.emitNDE(slot, rec.Seq, rec)
			if f.Cfg.CoupleOrder {
				f.breakWindow(slot)
			}

		case stateKind(k):
			p := &f.pend[k]
			if !p.ok {
				f.npend++
			}
			p.data, p.seq, p.ok = append(p.data[:0], rec.Data...), rec.Seq, true

		case taggedKind(k):
			f.emitNDE(slot, rec.Seq, rec)

		case k == event.KindTrap:
			wantFlush = true
			f.out = append(f.out, wire.Item{Type: wire.TypeRawBase + uint8(k), Core: f.Core, Slot: slot, Payload: rec.Data})

		default:
			// Derivable event: fold into the window digest unless it
			// belongs to a skipped (MMIO) instruction.
			if f.haveSkip && rec.Seq == f.lastSkipSeq {
				f.emitNDE(slot, rec.Seq, rec)
				continue
			}
			f.dig.Add(k, rec.Data)
		}
	}

	if wantFlush && f.windowOpen {
		f.flushWindow(250)
	}
	// State differencing runs on its own cadence, decoupled from window
	// flushes, so fusion policy does not change snapshot traffic.
	f.stateAge++
	if f.npend > 0 && f.stateAge >= f.Cfg.StateFlushAge {
		f.flushState(251)
		f.stateAge = 0
	}
	return f.out
}

// Flush closes the window and all pending state at end of run. The items
// are valid until the next Cycle or Flush call.
func (f *Fuser) Flush() []wire.Item {
	f.out, f.buf = f.out[:0], f.buf[:0]
	if f.windowOpen {
		f.flushWindow(250)
	}
	if f.npend > 0 {
		f.flushState(251)
	}
	return f.out
}

// emit adopts payload — f.buf extended by one item payload — as the next
// item.
func (f *Fuser) emit(typ, slot uint8, payload []byte) {
	start := len(f.buf)
	f.buf = payload
	f.out = append(f.out, wire.Item{Type: typ, Core: f.Core, Slot: slot, Payload: payload[start:len(payload):len(payload)]})
}

func (f *Fuser) emitNDE(slot uint8, tag uint64, rec event.Record) {
	f.Stats.NDEsAhead++
	f.emit(wire.TypeNDEBase+uint8(rec.Kind), slot, wire.AppendNDE(f.buf, tag, rec.Data))
}

// breakWindow implements order-coupled fusion: transmit the fused-so-far
// window immediately when an NDE appears.
func (f *Fuser) breakWindow(slot uint8) {
	if !f.windowOpen {
		return
	}
	f.Stats.Breaks++
	f.flushWindow(slot)
}

func (f *Fuser) flushWindow(slot uint8) {
	f.Stats.Windows++
	f.Stats.FusedCommits += f.fc.Count
	f.emit(wire.TypeFused, slot, wire.AppendFused(f.buf, f.fc))
	f.emit(wire.TypeDigest, slot, wire.AppendDigest(f.buf, f.dig.Count, f.dig.Sum))
	f.fc = wire.FusedCommit{}
	f.dig = derive.Digest{}
	f.windowOpen, f.tokenSet = false, false
}

// flushState transmits the pending state snapshots: differenced when a
// previous instance exists, whole otherwise, always with an order tag. The
// transmitted snapshot becomes its kind's differencing base.
func (f *Fuser) flushState(slot uint8) {
	for _, k := range orderedStateKinds {
		p := &f.pend[k]
		if !p.ok {
			continue
		}
		if prev := f.lastSent[k]; prev != nil {
			start := len(f.buf)
			f.emit(wire.TypeDiffBase+uint8(k), slot, wire.AppendDiff(f.buf, p.seq, prev, p.data))
			f.Stats.Diffs++
			f.Stats.DiffBytes += uint64(len(f.buf) - start)
		} else {
			f.Stats.RawState++
			f.emit(wire.TypeNDEBase+uint8(k), slot, wire.AppendNDE(f.buf, p.seq, p.data))
		}
		f.lastSent[k], p.data = p.data, f.lastSent[k]
		p.ok = false
		f.npend--
	}
}

// orderedStateKinds lists snapshot kinds in canonical flush order.
var orderedStateKinds = []event.Kind{
	event.KindArchIntRegState, event.KindCSRState, event.KindFpCSRState,
	event.KindArchFpRegState, event.KindVecCSRState, event.KindArchVecRegState,
	event.KindHCSRState, event.KindDebugCSRState, event.KindTriggerCSRState,
}
