package main

import (
	"fmt"
	"time"

	"repro/internal/batch"
	"repro/internal/checker"
	"repro/internal/comm"
	"repro/internal/cosim"
	"repro/internal/dut"
	"repro/internal/event"
	"repro/internal/ref"
	"repro/internal/replay"
	"repro/internal/squash"
	"repro/internal/wire"
	"repro/internal/workload"
)

// The ledger driver re-drives one op sequentially, in the call order of
// cosim's runner.loop / runner.transport, with a monotonic-clock read around
// every call into a layer. It exists because the executed pipeline reports
// only producer and consumer busy time: the ledger says which module inside
// each side the time goes to. It calls the same exported functions cosim
// does and must reach cosim.Run's verdict and simulated counters, which the
// traced run checks on every op. When cosim grows a single exported software
// half, the driver should call that instead of mirroring it.

// layer identifies one timed call site. Names are <module>.<call>.
type layer int

const (
	layGenerate layer = iota
	laySetup
	layDUT
	layReplayAdd
	layFuse
	layFromRecords
	layPack
	layUnpack
	layDesquash
	layToRecord
	layCheck
	layReplayRun
	numLayers
)

var layerNames = [numLayers]string{
	"workload.generate", "cosim.setup", "dut.step", "replay.add", "squash.fuse",
	"wire.from_records", "batch.pack", "batch.unpack", "squash.desquash",
	"wire.to_record", "checker.process", "replay.run",
}

// ledger accumulates busy time and work counts per layer over the ops it
// drives, and hands per-chunk aggregates to the span recorder.
type ledger struct {
	base  time.Time
	rec   *recorder
	total [numLayers]layerAcc // over all ops
	chunk [numLayers]layerAcc // since the last span flush

	opID, chunkID, root int
}

func newLedger(rec *recorder) *ledger {
	return &ledger{base: time.Now(), rec: rec}
}

// now reads the monotonic clock as nanoseconds since the ledger was made.
func (l *ledger) now() int64 { return int64(time.Since(l.base)) }

// add charges the interval [t0,t1) and the work c to a layer.
func (l *ledger) add(lay layer, t0, t1 int64, c counts) {
	a := &l.chunk[lay]
	if a.Calls == 0 {
		a.start = t0
	}
	a.end = t1
	a.busy += t1 - t0
	a.counts.add(c)
}

// flushChunk turns the open chunk's aggregates into one span per layer.
func (l *ledger) flushChunk() {
	for lay := range l.chunk {
		a := &l.chunk[lay]
		if a.Calls == 0 {
			continue
		}
		l.rec.add(span{
			Name: layerNames[lay], Parent: l.root, OpID: l.opID, Chunk: l.chunkID,
			StartNs: a.start, EndNs: a.end, BusyNs: a.busy, Counts: a.counts,
		})
		t := &l.total[lay]
		t.busy += a.busy
		t.counts.add(a.counts)
		*a = layerAcc{}
	}
	l.chunkID++
}

// ledgerRun is the mutable state of one op, the counterpart of cosim's
// runner.
type ledgerRun struct {
	*ledger
	p      cosim.Params
	d      *dut.DUT
	chk    *checker.Checker
	link   *comm.Link
	squash bool

	fusers   []*squash.Fuser
	desq     *squash.Desquasher
	rbuf     *replay.Buffer
	rctls    []*replay.Controller
	packer   *batch.Packer
	unpacker *batch.Unpacker

	res          *cosim.Result
	stop         bool
	bufferedPeak uint64
	replayNs     int64
}

// spanChunkCycles is the span granularity: one span per layer per this many
// DUT cycles. bufferSampleCycles is how often the replay buffer's occupancy
// is sampled for its peak.
const (
	spanChunkCycles    = 1024
	bufferSampleCycles = 128
)

// drive runs one op through the ledger and returns the verdict and counters
// in cosim's own Result type, so the same checks apply to both.
func (l *ledger) drive(opID int, p cosim.Params) (*ledgerRun, error) {
	if !p.Opt.Batch || p.Opt.FixedOffset || p.Platform.IsSoftware() {
		return nil, fmt.Errorf("ledger: only tight-packed EB/EBIN/EBINSD on a hardware platform is mirrored, not %s on %s", p.Opt.Name(), p.Platform.Name)
	}
	if p.MaxCycles == 0 {
		p.MaxCycles = 100_000_000
	}
	l.opID, l.chunkID = opID, 0
	rootStart := l.now()
	l.root = l.rec.add(span{Name: "op", Parent: -1, OpID: opID, StartNs: rootStart})

	t0 := l.now()
	prog := workload.Generate(p.Workload, p.DUT.Cores, p.Seed)
	t1 := l.now()
	l.add(layGenerate, t0, t1, counts{Calls: 1})
	r := &ledgerRun{
		ledger: l, p: p, squash: p.Opt.Squash,
		d:   dut.New(p.DUT, prog.Image, prog.Entries, p.Hooks),
		chk: checker.New(prog.Image, prog.Entries, p.DUT.Cores),
		res: &cosim.Result{Config: p.Opt.Name(), DUTName: p.DUT.Name, Platform: p.Platform.Name},
	}
	l.add(laySetup, t1, l.now(), counts{Calls: 1})

	dutHz := p.Platform.DUTOnlyHz(p.DUT.GatesM)
	r.link = comm.NewLink(p.Platform, dutHz, p.Opt.NonBlocking)
	if r.squash {
		scfg := squash.DefaultConfig()
		for i := 0; i < p.DUT.Cores; i++ {
			r.fusers = append(r.fusers, squash.NewFuser(scfg, uint8(i)))
		}
		r.rbuf = replay.NewBuffer(p.ReplayBufCap)
		r.desq = squash.NewDesquasher(r.chk, p.DUT.EnabledKinds())
		for _, cc := range r.chk.Cores {
			r.rctls = append(r.rctls, replay.NewController(cc, r.rbuf))
		}
		r.desq.OnWindow = func(core uint8, fc wire.FusedCommit) {
			r.rctls[core].Checkpoint(fc.StartToken)
		}
	}
	r.packer = batch.NewPacker(p.Platform.PacketBytes)
	r.unpacker = &batch.Unpacker{}

	err := r.loop()
	l.flushChunk()
	end := l.now()
	l.rec.finish(l.root, end)
	if err != nil {
		return nil, err
	}
	r.finish()
	return r, nil
}

func (r *ledgerRun) loop() error {
	for cycle := uint64(0); cycle < r.p.MaxCycles && !r.stop; cycle++ {
		t0 := r.now()
		recs, done := r.d.StepCycle()
		t1 := r.now()
		r.add(layDUT, t0, t1, counts{Calls: 1, Records: uint64(len(recs))})
		r.link.AdvanceCycle()

		if err := r.transport(r.hardwareSide(recs), false); err != nil {
			return err
		}
		if done {
			if err := r.flushAll(); err != nil {
				return err
			}
			r.res.Finished = true
			_, r.res.TrapCode = r.chk.Finished()
			return nil
		}
		if r.rbuf != nil && cycle%bufferSampleCycles == 0 {
			r.sampleBuffer()
		}
		if (cycle+1)%spanChunkCycles == 0 {
			r.flushChunk()
		}
	}
	if !r.stop {
		return fmt.Errorf("ledger: %s did not finish within %d cycles: %w", r.p.DUT.Name, r.p.MaxCycles, cosim.ErrCycleLimit)
	}
	return nil
}

func (r *ledgerRun) sampleBuffer() {
	if b := r.rbuf.BufferedBytes(); b > r.bufferedPeak {
		r.bufferedPeak = b
	}
}

// hardwareSide mirrors runner.hardwareSide: replay buffering plus Squash
// fusion (the per-core split is charged to the fuser it feeds), or the plain
// item conversion.
func (r *ledgerRun) hardwareSide(recs []event.Record) []wire.Item {
	if len(recs) == 0 {
		return nil
	}
	n := uint64(len(recs))
	t0 := r.now()
	if !r.squash {
		items := wire.FromRecords(recs)
		r.add(layFromRecords, t0, r.now(), counts{Calls: 1, Records: n, Items: uint64(len(items))})
		return items
	}
	startTok := r.rbuf.Add(recs)
	t1 := r.now()
	r.add(layReplayAdd, t0, t1, counts{Calls: 1, Records: n})
	var items []wire.Item
	for core := 0; core < r.p.DUT.Cores; core++ {
		var coreRecs []event.Record
		var toks []uint64
		for i, rec := range recs {
			if int(rec.Core) == core {
				coreRecs = append(coreRecs, rec)
				toks = append(toks, startTok+uint64(i))
			}
		}
		if len(coreRecs) > 0 {
			items = append(items, r.fusers[core].Cycle(coreRecs, toks)...)
		}
	}
	r.add(layFuse, t1, r.now(), counts{Calls: 1, Records: n, Items: uint64(len(items))})
	return items
}

// transport mirrors runner.transport's tight-packing arm: pack, account the
// modeled link, unpack, release the packet, then check the items — all
// before the next AddPacket, so an unpacker that reuses its arena is safe.
func (r *ledgerRun) transport(items []wire.Item, flush bool) error {
	if r.stop {
		return nil
	}
	t0 := r.now()
	pkts := r.packer.AddCycle(items)
	if flush {
		pkts = append(pkts, r.packer.Flush()...)
	}
	r.add(layPack, t0, r.now(), counts{Calls: 1, Items: uint64(len(items)), Packets: uint64(len(pkts))})

	for i := range pkts {
		if r.stop {
			// The run already diverged: unsent packets still own pooled buffers.
			releaseAll(pkts[i:])
			return nil
		}
		pkt := &pkts[i]
		size := uint64(len(pkt.Buf))
		r.link.Send(len(pkt.Buf), pkt.Events, pkt.Instrs)
		t0 := r.now()
		rx, err := r.unpacker.AddPacket(pkt.Buf)
		pkt.Release()
		r.add(layUnpack, t0, r.now(), counts{Calls: 1, Packets: 1, Bytes: size, Items: uint64(len(rx))})
		if err == nil {
			err = r.software(rx)
		}
		if err != nil {
			releaseAll(pkts[i+1:])
			return err
		}
	}
	if flush && !r.stop {
		t0 := r.now()
		rx := r.unpacker.Flush()
		r.add(layUnpack, t0, r.now(), counts{Calls: 1, Items: uint64(len(rx))})
		return r.software(rx)
	}
	return nil
}

func releaseAll(pkts []batch.Packet) {
	for i := range pkts {
		pkts[i].Release()
	}
}

// software mirrors runner.software/checkItem. Consecutive calls share their
// boundary clock read.
func (r *ledgerRun) software(items []wire.Item) error {
	t := r.now()
	for _, it := range items {
		var m *checker.Mismatch
		if r.squash {
			m = r.desq.Process(it)
			t1 := r.now()
			r.add(layDesquash, t, t1, counts{Calls: 1, Items: 1})
			t = t1
		} else {
			rec, err := wire.ToRecord(it)
			t1 := r.now()
			r.add(layToRecord, t, t1, counts{Calls: 1, Items: 1})
			if err != nil {
				return err
			}
			m = r.chk.Process(rec)
			t2 := r.now()
			r.add(layCheck, t1, t2, counts{Calls: 1, Records: 1})
			t = t2
		}
		if m != nil {
			r.onMismatch(m)
			return nil
		}
	}
	return nil
}

func (r *ledgerRun) onMismatch(m *checker.Mismatch) {
	r.res.Mismatch = m
	r.stop = true
	if r.squash && !r.p.DisableReplay && int(m.Core) < len(r.rctls) {
		r.sampleBuffer()
		t0 := r.now()
		rep := r.rctls[m.Core].Run(m)
		t1 := r.now()
		r.add(layReplayRun, t0, t1, counts{Calls: 1, Records: uint64(rep.Replayed), Bytes: uint64(rep.ReplayedBytes)})
		r.replayNs = t1 - t0
		r.link.Send(rep.ReplayedBytes+64, rep.Replayed, 0)
		r.res.Replay = rep
	}
}

func (r *ledgerRun) flushAll() error {
	for _, f := range r.fusers {
		t0 := r.now()
		tail := f.Flush()
		r.add(layFuse, t0, r.now(), counts{Calls: 1, Items: uint64(len(tail))})
		if err := r.transport(tail, false); err != nil {
			return err
		}
	}
	if err := r.transport(nil, true); err != nil {
		return err
	}
	if r.squash && !r.stop {
		t0 := r.now()
		m := r.desq.Flush()
		r.add(layDesquash, t0, r.now(), counts{Calls: 1})
		if m != nil {
			r.onMismatch(m)
		}
	}
	return nil
}

// finish fills the simulated counters the way runner.finish does.
func (r *ledgerRun) finish() {
	res, d := r.res, r.d
	res.Cycles, res.Instrs = d.CycleCount, d.Instrs
	for _, n := range d.EventCount {
		res.MonitorEvents += n
	}
	res.MonitorBytes = d.EventBytes
	res.SimSeconds = r.link.Drain()
	res.Invokes, res.WireBytes = r.link.Invokes, r.link.Bytes
	res.PacketUtilation = r.packer.Utilization()
	for _, f := range r.fusers {
		addFusion(&res.Fusion, f.Stats)
	}
	if r.rbuf != nil {
		r.sampleBuffer()
	}
}

// refStep times a bare reference model over the op's program, to split REF
// stepping out of checker.process and squash.desquash. The bare model takes
// no interrupt and skips no MMIO, so it retires somewhat fewer instructions
// than the DUT did; it stops at the program's closing self-jump, or after
// limit steps.
func refStep(p cosim.Params, limit uint64) (ns int64, steps uint64) {
	prog := workload.Generate(p.Workload, p.DUT.Cores, p.Seed)
	m := ref.New(prog.Image)
	if len(prog.Entries) > 0 {
		m.M.State.PC = prog.Entries[0]
	}
	t0 := time.Now()
	for steps < limit {
		ex := m.Step()
		steps++
		if ex.NextPC == ex.PC {
			break
		}
	}
	return time.Since(t0).Nanoseconds(), steps
}
