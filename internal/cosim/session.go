package cosim

import (
	"fmt"
	"strings"

	"repro/internal/batch"
	"repro/internal/checker"
	"repro/internal/dut"
	"repro/internal/event"
	"repro/internal/squash"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// CheckerSession is the software half of a co-simulation (paper Figure
// 3/12): meta-guided unpacking or fixed-frame reassembly, the Squash
// reorderer, one REF+checker, and the end-of-stream flush. There is exactly
// one, whatever link sits in front of it: the runner drives it inline
// (sequential loop) or from the pipeline's consumer stage (executed mode),
// and difftestd builds one per networked session through NewSession
// (transport.SessionChecker). The Replay round trip is not part of it — the
// replay buffer is hardware-side, so the runner wires its controllers to the
// half it owns and a remote mismatch reports the diagnosis without replay.
type CheckerSession struct {
	opt     Options
	chk     *checker.Checker
	desq    *squash.Desquasher
	unpack  *batch.Unpacker
	layout  *batch.FixedLayout
	fixedRx []byte

	mismatch *checker.Mismatch
	events   uint64
}

// newCheckerSession builds the half for one option set over a fresh checker.
func newCheckerSession(opt Options, d dut.Config, chk *checker.Checker) *CheckerSession {
	s := &CheckerSession{opt: opt, chk: chk}
	if opt.Squash {
		s.desq = squash.NewDesquasher(chk, d.EnabledKinds())
	}
	if opt.Batch {
		if opt.FixedOffset {
			s.layout = batch.NewFixedLayout(d.EventKinds, max(1, d.BurstMax))
		} else {
			s.unpack = &batch.Unpacker{}
		}
	}
	return s
}

// NewSession resolves a handshake into a fresh checker session. Both ends
// derive the program image from the same (workload, cores, seed) triple, so
// the server's reference models start from exactly the client DUT's state.
// This is transport.NewSessionFunc for difftestd.
func NewSession(h transport.Hello) (transport.SessionChecker, error) {
	d, ok := dutByName(h.DUT)
	if !ok {
		return nil, fmt.Errorf("unknown DUT %q", h.DUT)
	}
	opt, err := ParseConfig(h.Config)
	if err != nil {
		return nil, err
	}
	opt.CoupleOrder = h.CoupleOrder
	opt.FixedOffset = h.FixedOffset
	opt.MaxFuse = h.MaxFuse
	var wl workload.Profile
	if h.Profile != nil {
		// Full profile on the wire (fuzzing campaigns): the handshake carries
		// an arbitrary — possibly mutated — parameter vector, so validate it
		// before the generator sees it.
		wl = *h.Profile
	} else {
		var ok bool
		wl, ok = workload.ByName(h.Workload)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", h.Workload)
		}
		wl.TargetInstrs = h.TargetInstrs
	}
	if err := wl.Validate(); err != nil {
		return nil, err
	}
	if opt.FixedOffset && d.Cores > 1 {
		return nil, fmt.Errorf("fixed-offset packing supports a single core")
	}

	prog := workload.Generate(wl, d.Cores, h.Seed)
	return newCheckerSession(opt, d, checker.New(prog.Image, prog.Entries, d.Cores)), nil
}

// dutByName resolves a handshake DUT name against the configured designs.
func dutByName(name string) (dut.Config, bool) {
	for _, d := range dut.Configs() {
		if strings.EqualFold(d.Name, name) {
			return d, true
		}
	}
	return dut.Config{}, false
}

// Packet consumes one batch-packed packet from a pooled frame buffer. The
// unpacker (or the fixed-frame reassembly) copies every payload it keeps, so
// the caller releases buf immediately after return.
func (s *CheckerSession) Packet(buf []byte) (*checker.Mismatch, error) {
	items, err := s.unpackPacket(buf)
	if err != nil {
		return nil, err
	}
	return s.check(items)
}

// unpackPacket recovers the wire items one packet completes: meta-guided
// unpacking for tight packing, or — fixed-offset — appending to the
// reassembly buffer and unpacking every whole frame it now holds.
func (s *CheckerSession) unpackPacket(buf []byte) ([]wire.Item, error) {
	switch {
	case !s.opt.Batch:
		return nil, fmt.Errorf("cosim: packet frame on a per-event (%s) session", s.opt.Name())
	case !s.opt.FixedOffset:
		return s.unpack.AddPacket(buf)
	}
	s.fixedRx = append(s.fixedRx, buf...)
	n := len(s.fixedRx) / s.layout.FrameSize * s.layout.FrameSize
	if n == 0 {
		return nil, nil
	}
	frames, err := batch.UnpackFixedStream(s.layout, s.fixedRx[:n])
	if err != nil {
		return nil, err
	}
	s.fixedRx = append(s.fixedRx[:0], s.fixedRx[n:]...)
	var items []wire.Item
	for _, f := range frames {
		items = append(items, f...)
	}
	return items, nil
}

// Items consumes bare wire items (the per-event baseline config).
func (s *CheckerSession) Items(items []wire.Item) (*checker.Mismatch, error) {
	return s.check(items)
}

// checkItem runs one wire item through the Squash reorderer or the direct
// per-event checker.
func (s *CheckerSession) checkItem(it wire.Item) (*checker.Mismatch, error) {
	if s.opt.Squash {
		return s.desq.Process(it), nil
	}
	if it.Type >= wire.TypeNDEBase {
		return nil, fmt.Errorf("wire: item type %d is not raw", it.Type)
	}
	return s.chk.ProcessItem(it.Core, event.Kind(it.Type), it.Payload)
}

// check runs items in stream order, stopping at the first divergence: once
// the stream has diverged nothing further is checked.
func (s *CheckerSession) check(items []wire.Item) (*checker.Mismatch, error) {
	if s.mismatch != nil {
		return nil, nil // stream already diverged; drain without checking
	}
	for _, it := range items {
		s.events++
		m, err := s.checkItem(it)
		if err != nil {
			return nil, err
		}
		if m != nil {
			s.mismatch = m
			return m, nil
		}
	}
	return nil, nil
}

// Finish is the end-of-stream flush — the unpacker's tail, then the
// reorderer's held-back checks — and reports the final verdict.
func (s *CheckerSession) Finish() (transport.Final, error) {
	if s.opt.Batch && !s.opt.FixedOffset {
		if _, err := s.check(s.unpack.Flush()); err != nil {
			return transport.Final{}, err
		}
	}
	if s.opt.Squash && s.mismatch == nil {
		s.mismatch = s.desq.Flush()
	}
	if s.mismatch != nil {
		return transport.Final{Mismatch: s.mismatch}, nil
	}
	_, code := s.chk.Finished()
	return transport.Final{TrapCode: code}, nil
}

// Events reports how many wire items this session checked.
func (s *CheckerSession) Events() uint64 { return s.events }

// CoverageSnapshot merges the per-core coverage counters — the server
// attaches it to the closing verdict (transport.CoverageReporter).
func (s *CheckerSession) CoverageSnapshot() *checker.Coverage { return s.chk.Coverage() }
