package cosim

import (
	"repro/internal/batch"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The two ends of runner.loop. hwProducer is the hardware side — cycle →
// fuse → pack → modeled link — emitting one transfer per call, whether the
// caller is the sequential loop or the executed pipeline's producer stage.
// In-process, the CheckerSession behind it is the sink.
//
// The modeled simulated-time accounting is the same in every mode — the
// producer drives comm.Link — so an executed run reports both the analytic
// speed (SpeedHz) and the measured wall-clock concurrency (Exec, ExecutedHz).

// xfer is one transfer crossing the link: a packed packet (Batch/fixed-offset
// modes, pkt.Buf != nil) or bare wire items (per-event baseline). The packet
// is held by value: a pointer into the producer's packet slice would alias
// storage the producer may reuse while the consumer goroutine is still
// reading.
type xfer struct {
	pkt   batch.Packet
	items []wire.Item
}

// hwProducer is the hardware side: it steps the DUT, applies the
// acceleration unit, packs, and accounts the modeled link.
type hwProducer struct {
	r        *runner
	pending  []xfer
	finished bool // the DUT reached its trap
}

func (p *hwProducer) next() (xfer, bool, error) {
	r := p.r
	for len(p.pending) == 0 {
		if p.finished {
			return xfer{}, false, nil
		}
		if err := r.cancelled(); err != nil {
			return xfer{}, false, err
		}
		if r.d.CycleCount >= r.p.MaxCycles {
			return xfer{}, false, r.cycleLimitErr()
		}
		recs, done := r.d.StepCycle()
		r.link.AdvanceCycle()
		if r.p.Trace != nil {
			if err := r.p.Trace.WriteCycle(r.d.CycleCount, recs); err != nil {
				return xfer{}, false, err
			}
		}
		if err := p.pack(r.hardwareSide(recs), false); err != nil {
			return xfer{}, false, err
		}
		if done {
			p.finished = true
			// Tail flush: each fuser's open window, packed in core order,
			// then the packer's open packet.
			for _, f := range r.fusers {
				if err := p.pack(f.Flush(), false); err != nil {
					return xfer{}, false, err
				}
			}
			if err := p.pack(nil, true); err != nil {
				return xfer{}, false, err
			}
		}
	}
	x := p.pending[0]
	p.pending = p.pending[1:]
	// The modeled link is charged when a transfer leaves, not when it is
	// packed: a run stopped at a mismatch releases the packets packed behind
	// it without ever having sent them.
	if x.pkt.Buf != nil {
		r.link.Send(len(x.pkt.Buf), x.pkt.Events, x.pkt.Instrs)
	} else {
		r.link.Send(x.items[0].BaselineWireSize(), 1, x.items[0].InstrCount())
	}
	return x, true, nil
}

// runInline is the sequential driver: one goroutine alternates the hardware
// side and the sink, transfer by transfer.
func (p *hwProducer) runInline(transfer func(xfer) (bool, error)) error {
	for {
		x, ok, err := p.next()
		if err != nil || !ok {
			return err
		}
		if stop, err := transfer(x); err != nil || stop {
			return err
		}
	}
}

// releasePending returns the pooled buffers of packed-but-untransferred
// packets (the run stopped early on a mismatch or an error).
func (p *hwProducer) releasePending() {
	for _, x := range p.pending {
		dropXfer(x)
	}
	p.pending = nil
}

// dropXfer releases a transfer the consumer never saw — the pipeline's Drop
// callback for transfers stranded in flight by an early stop.
func dropXfer(x xfer) {
	x.pkt.Release()
}

// pack queues items as transfers per the configured packing: fixed-offset
// frames, tight packets, or one transfer per event (one DPI-C call per
// event, paper §2.2). flush also closes the packer's open packet.
func (p *hwProducer) pack(items []wire.Item, flush bool) error {
	r := p.r
	var pkts []batch.Packet
	switch {
	case !r.opt.Batch:
		// The payloads alias this cycle's monitor or fuser buffers, which
		// the transfers outlive: copy the cycle's items and payloads once.
		size := 0
		for _, it := range items {
			size += len(it.Payload)
		}
		owned, arena := make([]wire.Item, len(items)), make([]byte, 0, size)
		for i, it := range items {
			start := len(arena)
			arena = append(arena, it.Payload...)
			it.Payload = arena[start:len(arena):len(arena)]
			owned[i] = it
			p.pending = append(p.pending, xfer{items: owned[i : i+1 : i+1]})
		}
	case r.opt.FixedOffset:
		var err error
		if pkts, err = r.fixed.AddCycle(items); err != nil {
			return err
		}
		if flush {
			pkts = append(pkts, r.fixed.Flush()...)
		}
	default:
		pkts = r.packer.AddCycle(items)
		if flush {
			pkts = append(pkts, r.packer.Flush()...)
		}
	}
	for _, pkt := range pkts {
		p.pending = append(p.pending, xfer{pkt: pkt})
	}
	return nil
}

// The in-process sink is the half itself: it checks every transfer on the
// goroutine that consumes it, in stream order, exactly as a difftestd
// session does.

// transfer checks one transfer's items. A packet's buffer goes back to the
// pool once checked: the unpacker copied every payload it keeps.
func (s *CheckerSession) transfer(x xfer) (bool, error) {
	if x.pkt.Buf == nil {
		m, err := s.Items(x.items)
		return m != nil, err
	}
	m, err := s.Packet(x.pkt.Buf[:x.pkt.Used])
	x.pkt.Release()
	return m != nil, err
}

func (s *CheckerSession) finish() (transport.Final, error) { return s.Finish() }

func (s *CheckerSession) close() {}
