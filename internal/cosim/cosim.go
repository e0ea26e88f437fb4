// Package cosim orchestrates hardware-accelerated co-simulation: it wires
// the DUT monitor through the acceleration unit (Squash fusion, Batch
// packing), the non-blocking communication unit, the software unpacker and
// reorderer, the ISA checker, and the Replay debugging unit — the complete
// DiffTest-H framework of paper Figure 3/12.
//
// The four optimization levels match the paper's artifact configurations:
//
//	Z       baseline: one blocking transfer per verification event
//	EB      +Batch:   tight packing into fixed-size packets
//	EBIN    +NonBlock: hardware-software parallelism
//	EBINSD  +Squash:  order-decoupled fusion and differencing
package cosim

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/batch"
	"repro/internal/checker"
	"repro/internal/comm"
	"repro/internal/dut"
	"repro/internal/event"
	"repro/internal/loggp"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/squash"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Options selects the communication optimizations.
type Options struct {
	Batch       bool
	NonBlocking bool
	Squash      bool

	// Executed runs the co-simulation as a real concurrent pipeline
	// (internal/pipeline): DUT producer, link, and checker consumer in
	// separate goroutines, with NonBlocking mapped to a bounded in-flight
	// queue and blocking mode to a per-transfer handshake. The analytic
	// (modeled) time accounting still runs; Result.Exec additionally
	// reports the measured wall-clock overlap.
	Executed bool

	// Ablations.
	CoupleOrder bool // order-coupled fusion (existing schemes)
	FixedOffset bool // fixed-offset packing instead of tight packing
	MaxFuse     int  // fusion window size (0 = default 64)
}

// Named configurations per the paper's artifact appendix (§A.5.2).
var namedConfigs = map[string]Options{
	"Z":      {},
	"EB":     {Batch: true},
	"EBIN":   {Batch: true, NonBlocking: true},
	"EBINSD": {Batch: true, NonBlocking: true, Squash: true},
}

// ParseConfig resolves a DIFF_CONFIG name (Z, EB, EBIN, EBINSD).
func ParseConfig(name string) (Options, error) {
	o, ok := namedConfigs[strings.ToUpper(name)]
	if !ok {
		return Options{}, fmt.Errorf("cosim: unknown config %q (want Z, EB, EBIN, or EBINSD)", name)
	}
	return o, nil
}

// Name returns the artifact-style configuration name.
func (o Options) Name() string {
	switch {
	case o.Squash:
		return "EBINSD"
	case o.NonBlocking:
		return "EBIN"
	case o.Batch:
		return "EB"
	default:
		return "Z"
	}
}

// Params describes one co-simulation run.
type Params struct {
	DUT      dut.Config
	Platform platform.Platform
	Opt      Options
	Workload workload.Profile

	// Ctx, when set, cancels the run cooperatively: the cycle loop (and the
	// executed producer stage) checks it and aborts with ctx.Err(), so
	// pooled packet buffers drain through the same release paths a mismatch
	// stop uses. cmd/difftest wires SIGINT/SIGTERM here.
	Ctx context.Context

	// RemoteAddr, when non-empty, streams the hardware side to a difftestd
	// verification server at this address instead of checking in-process.
	// It accepts the unified transport spec forms — "tcp://host:port",
	// "unix:///path", "shm:///dir" (same-host shared-memory ring) — plus the
	// legacy "host:port" and "unix:<path>" shorthands. Remote runs are
	// always executed (concurrent pipeline); Result.Exec reports the
	// networked wall clock.
	RemoteAddr string
	// ShmLoopback, used by CompareModes only, adds a fourth pass per
	// configuration: an in-process difftestd served over a shared-memory
	// ring rendezvous, so the comparison table reports the same-host fast
	// path next to the modeled, executed, and (optionally) socket-remote
	// numbers without an external server.
	ShmLoopback bool
	// RemoteCfg tunes the networked client for RemoteAddr runs: reconnect
	// budget, backoff, stall detection. Every session resumes over a lost
	// connection; the zero value takes the transport defaults, and a session
	// that cannot be recovered degrades to in-process checking.
	RemoteCfg transport.ClientConfig
	// Tenant names the accounting principal for RemoteAddr runs. A fleet
	// router enforces per-tenant admission quotas and fair-share token
	// windows from it; a bare difftestd ignores it.
	Tenant string

	// Seed controls workload generation (DUT timing has its own seed).
	Seed int64
	// MaxCycles aborts runaway simulations (0 = 100M).
	MaxCycles uint64
	// Hooks injects bugs into the DUT.
	Hooks arch.Hooks
	// ReplayBufCap sizes the hardware replay buffer (0 = 1<<16 records).
	ReplayBufCap int
	// DisableReplay turns off replay-on-mismatch (for ablation).
	DisableReplay bool
	// Trace, when set, receives every monitor cycle (tuning toolkit §5:
	// dump once, re-drive the verification logic without the DUT).
	Trace *trace.Writer
}

// Result reports a run's outcome and performance accounting.
type Result struct {
	Config   string
	DUTName  string
	Platform string

	Finished bool
	TrapCode uint64
	Mismatch *checker.Mismatch
	Replay   *replay.Report

	// Coverage is the checker's semantic coverage signal for this run — the
	// fuzzer's feedback channel. Local runs snapshot it from the in-process
	// checker; remote runs receive it in the closing verdict (nil when the
	// server predates the field).
	Coverage *checker.Coverage

	// Degraded marks a remote run whose session was lost beyond the retry
	// budget and was redone with in-process checking: the verdict below is
	// authoritative (the DUT and workload are deterministic), but no
	// networked throughput was measured.
	Degraded bool

	Cycles uint64
	Instrs uint64

	// Simulated-time accounting.
	SimSeconds float64 // total co-simulation time
	SpeedHz    float64 // Cycles / SimSeconds
	DUTOnlyHz  float64 // the platform's DUT-only speed for this design

	// Communication accounting.
	Invokes           uint64
	WireBytes         uint64
	SWSeconds         float64
	Breakdown         loggp.Breakdown
	CommOverheadShare float64 // fraction of SimSeconds beyond pure DUT time

	// Monitor traffic (pre-optimization, Table 4).
	MonitorEvents   uint64
	MonitorBytes    uint64
	EventsPerCycle  float64
	BytesPerCycle   float64
	BytesPerInstr   float64
	PacketUtilation float64

	// Squash counters (§5 tuning toolkit).
	Fusion squash.Stats

	// Executed-pipeline measurements (Options.Executed only): real
	// wall-clock concurrency of the producer/link/consumer goroutines.
	Exec *pipeline.Metrics
	// ExecutedHz is Cycles divided by measured wall-clock time — the
	// host-side throughput of the executed pipeline (not simulated time).
	ExecutedHz float64
}

// Speedup returns this result's speed relative to a baseline.
func (r *Result) Speedup(base *Result) float64 {
	if base == nil || base.SpeedHz == 0 {
		return 0
	}
	return r.SpeedHz / base.SpeedHz
}

// ErrCycleLimit is wrapped by the error a run returns when it reaches
// Params.MaxCycles without finishing. Callers that treat runaway workloads as
// data rather than failures — the fuzzer counts them as hung evaluations —
// test for it with errors.Is.
var ErrCycleLimit = errors.New("cycle limit exceeded")

// Run executes one co-simulation end to end.
func Run(p Params) (*Result, error) {
	r, err := newRunner(p)
	if err != nil {
		return nil, err
	}
	if err := r.loop(); err != nil {
		if p.RemoteAddr != "" && errors.Is(err, transport.ErrSessionLost) {
			return degrade(p, r, err)
		}
		return nil, err
	}
	r.finish()
	return r.res, nil
}

// newRunner validates p, applies its defaults, and builds both sides of the
// run.
func newRunner(p Params) (*runner, error) {
	if p.MaxCycles == 0 {
		p.MaxCycles = 100_000_000
	}
	opt := p.Opt
	if opt.FixedOffset && p.DUT.Cores > 1 {
		return nil, fmt.Errorf("cosim: fixed-offset packing supports a single core")
	}

	if err := p.Workload.Validate(); err != nil {
		return nil, fmt.Errorf("cosim: %w", err)
	}
	prog := workload.Generate(p.Workload, p.DUT.Cores, p.Seed)
	r := &runner{
		p: p, opt: opt,
		d:    dut.New(p.DUT, prog.Image, prog.Entries, p.Hooks),
		link: comm.NewLink(p.Platform, p.Platform.DUTOnlyHz(p.DUT.GatesM), opt.NonBlocking),
		res:  &Result{Config: opt.Name(), DUTName: p.DUT.Name, Platform: p.Platform.Name},
	}
	if p.RemoteAddr == "" {
		r.half = newCheckerSession(opt, p.DUT, checker.New(prog.Image, prog.Entries, p.DUT.Cores))
	}
	r.setup()
	return r, nil
}

// degrade reruns a remote co-simulation in-process after its session was
// lost beyond recovery. The workload generator and DUT are deterministic
// functions of Params, so the rerun reaches the identical verdict the
// networked session would have — only the networked throughput measurement
// is lost. The failed attempt's reconnect accounting is carried over so the
// comparison table shows what the link went through before giving up.
func degrade(p Params, failed *runner, cause error) (*Result, error) {
	fp := p
	fp.RemoteAddr = ""
	res, err := Run(fp)
	if err != nil {
		return nil, fmt.Errorf("cosim: in-process rerun after session loss (%v): %w", cause, err)
	}
	res.Degraded = true
	if res.Exec == nil {
		res.Exec = &pipeline.Metrics{}
	}
	res.Exec.DegradedRuns = 1
	if m := failed.res.Exec; m != nil {
		res.Exec.Reconnects, res.Exec.ReplayedFrames, res.Exec.Migrations = m.Reconnects, m.ReplayedFrames, m.Migrations
	}
	return res, nil
}

// runner is one co-simulation: the hardware side it always owns (DUT,
// acceleration unit, modeled link, and the replay buffer where Replay runs)
// and — unless the software side lives in a remote difftestd — the software
// half it checks with.
type runner struct {
	p    Params
	opt  Options
	d    *dut.DUT
	link *comm.Link
	res  *Result

	fusers  []*squash.Fuser
	rbuf    *replay.Buffer // nil unless Replay runs: in-process, not DisableReplay
	nextTok uint64         // token of the next record, in step with rbuf
	packer  *batch.Packer
	fixed   *batch.FixedPacker

	half  *CheckerSession      // nil on remote runs
	rctls []*replay.Controller // Replay, one per core of half's checker

	// hardwareSide scratch, reused every cycle: the items it returns, and
	// one core's records and replay tokens under Squash.
	items    []wire.Item
	coreRecs []event.Record
	toks     []uint64
}

func (r *runner) setup() {
	if r.opt.Squash {
		scfg := squash.DefaultConfig()
		scfg.CoupleOrder = r.opt.CoupleOrder
		if r.opt.MaxFuse > 0 {
			scfg.MaxFuse = r.opt.MaxFuse
		}
		for i := 0; i < r.p.DUT.Cores; i++ {
			r.fusers = append(r.fusers, squash.NewFuser(scfg, uint8(i)))
		}
		if r.half != nil && !r.p.DisableReplay {
			// Replay needs the REF on this side of the link: checkpoint it
			// at every fusion-window start the reorderer is about to check.
			// Nothing else reads the buffer, so runs without Replay skip it.
			r.rbuf = replay.NewBuffer(r.p.ReplayBufCap)
			for _, cc := range r.half.chk.Cores {
				r.rctls = append(r.rctls, replay.NewController(cc, r.rbuf))
			}
			r.half.desq.OnWindow = func(core uint8, fc wire.FusedCommit) {
				r.rctls[core].Checkpoint(fc.StartToken)
			}
		}
	}
	if r.opt.Batch {
		if r.opt.FixedOffset {
			layout := batch.NewFixedLayout(r.p.DUT.EventKinds, max(1, r.p.DUT.BurstMax))
			r.fixed = batch.NewFixedPacker(layout, r.p.Platform.PacketBytes)
		} else {
			r.packer = batch.NewPacker(r.p.Platform.PacketBytes)
		}
	}
}

// cancelled reports the run's cooperative-cancellation state (Params.Ctx):
// nil while the run may continue, ctx.Err() once cancelled. The hardware
// side polls it every cycle, so an interrupt drains pooled packet buffers
// through the normal release paths.
func (r *runner) cancelled() error {
	if r.p.Ctx == nil {
		return nil
	}
	select {
	case <-r.p.Ctx.Done():
		return r.p.Ctx.Err()
	default:
		return nil
	}
}

// cycleLimitErr is the error of a run that reached Params.MaxCycles before
// the DUT's trap.
func (r *runner) cycleLimitErr() error {
	return fmt.Errorf("cosim: %s did not finish within %d cycles: %w", r.p.DUT.Name, r.p.MaxCycles, ErrCycleLimit)
}

// sink is the software side as the driver sees it, and the driver's only
// variable: the in-process half (CheckerSession), checked inline or behind
// the executed pipeline, or a networked client streaming to a difftestd
// (remoteSink).
type sink interface {
	// transfer consumes one transfer and owns its packet buffer. stop=true
	// means the stream has a verdict and production should cease.
	transfer(x xfer) (stop bool, err error)
	// finish ends a stream that ran without error — end-of-stream flush
	// included — and returns its verdict.
	finish() (transport.Final, error)
	// close releases the sink on every exit path.
	close()
}

// newSink picks the software side: a difftestd across Params.RemoteAddr, or
// the in-process half.
func (r *runner) newSink() (sink, error) {
	if r.p.RemoteAddr != "" {
		return dialRemoteSink(r)
	}
	return r.half, nil
}

// loop drives the hardware side into the sink until the DUT traps or the
// sink reports a verdict. The sequential loop alternates the two sides on
// this goroutine (hardware/software overlap is modeled by comm.Link only);
// executed and remote runs stage them onto internal/pipeline, NonBlocking
// mapped to a bounded in-flight queue and blocking mode to a per-transfer
// handshake. Either way a mismatch ends the run at the first divergence.
func (r *runner) loop() error {
	s, err := r.newSink()
	if err != nil {
		return err
	}
	defer s.close()

	prod := &hwProducer{r: r}
	defer prod.releasePending()
	if r.opt.Executed || r.p.RemoteAddr != "" {
		r.res.Exec, err = pipeline.Run(prod.next, s.transfer, pipeline.Config{
			NonBlocking: r.opt.NonBlocking,
			QueueDepth:  r.p.Platform.QueueDepth,
		}, dropXfer)
	} else {
		err = prod.runInline(s.transfer)
	}
	if err != nil {
		return err
	}
	// Every stage has joined: replay's buffer reads and the link's
	// replay-traffic accounting are single-threaded again.
	fin, err := s.finish()
	switch {
	case err != nil:
		return err
	case fin.Mismatch != nil:
		r.onMismatch(fin.Mismatch)
	case !prod.finished:
		// Only a remote verdict without a mismatch can stop the stream early
		// without an error; the hardware side itself fails in next.
		return r.cycleLimitErr()
	default:
		r.res.Finished, r.res.TrapCode = true, fin.TrapCode
	}
	return nil
}

// hardwareSide applies the acceleration unit: Squash fusion or plain item
// conversion, with replay buffering of the original unfused events. The
// items alias the cycle's records and the fusers' output buffers, so they
// are valid until the next cycle; pack copies them into packets (or, per
// event, into owned transfers) before then.
func (r *runner) hardwareSide(recs []event.Record) []wire.Item {
	r.items = r.items[:0]
	if len(recs) == 0 {
		return nil
	}
	if !r.opt.Squash {
		r.items = wire.AppendItems(r.items, recs)
		return r.items
	}
	// Tokens number records from 0 as Buffer.Add does, so the fused stream
	// is byte-identical with or without a buffer.
	startTok := r.nextTok
	r.nextTok += uint64(len(recs))
	if r.rbuf != nil {
		r.rbuf.Add(recs)
	}
	// Split per core, preserving order and token alignment.
	for core := 0; core < r.p.DUT.Cores; core++ {
		r.coreRecs, r.toks = r.coreRecs[:0], r.toks[:0]
		for i, rec := range recs {
			if int(rec.Core) == core {
				r.coreRecs = append(r.coreRecs, rec)
				r.toks = append(r.toks, startTok+uint64(i))
			}
		}
		if len(r.coreRecs) > 0 {
			r.items = append(r.items, r.fusers[core].Cycle(r.coreRecs, r.toks)...)
		}
	}
	return r.items
}

// onMismatch records the verdict and, when the REF is on this side of the
// link, runs the Replay round trip.
func (r *runner) onMismatch(m *checker.Mismatch) {
	r.res.Mismatch = m
	if int(m.Core) < len(r.rctls) {
		// Replay round trip: notify hardware, retransmit the buffered
		// range, reprocess at instruction granularity (paper Fig. 11).
		rep := r.rctls[m.Core].Run(m)
		r.link.Send(rep.ReplayedBytes+64, rep.Replayed, 0)
		r.res.Replay = rep
	}
}

func (r *runner) finish() {
	res, d, link := r.res, r.d, r.link
	dutHz := r.p.Platform.DUTOnlyHz(r.p.DUT.GatesM)
	res.Cycles = d.CycleCount
	res.Instrs = d.Instrs
	res.DUTOnlyHz = dutHz
	if r.half != nil {
		// In-process checking: snapshot the coverage signal directly. Remote
		// runs already copied it from the closing verdict.
		res.Coverage = r.half.CoverageSnapshot()
	}

	for _, n := range d.EventCount {
		res.MonitorEvents += n
	}
	res.MonitorBytes = d.EventBytes
	if d.CycleCount > 0 {
		res.EventsPerCycle = float64(res.MonitorEvents) / float64(d.CycleCount)
		res.BytesPerCycle = float64(res.MonitorBytes) / float64(d.CycleCount)
	}
	if d.Instrs > 0 {
		res.BytesPerInstr = float64(res.MonitorBytes) / float64(d.Instrs)
	}

	if r.p.Platform.IsSoftware() {
		// Same-process co-simulation (Verilator): no cross-platform link;
		// DiffTest costs a fixed efficiency factor.
		res.SimSeconds = float64(res.Cycles) / (dutHz * r.p.Platform.CosimEff)
	} else {
		res.SimSeconds = link.Drain()
	}
	if res.SimSeconds > 0 {
		res.SpeedHz = float64(res.Cycles) / res.SimSeconds
	}

	res.Invokes = link.Invokes
	res.WireBytes = link.Bytes
	res.SWSeconds = link.SWTime

	tsync := r.p.Platform.TSyncBlocking
	if r.opt.NonBlocking {
		tsync = r.p.Platform.TSyncNonBlock
	}
	res.Breakdown = loggp.Model(loggp.Inputs{
		Invokes: link.Invokes, Bytes: link.Bytes,
		TSync: tsync, BWBps: r.p.Platform.BandwidthBps, TSw: link.SWTime,
	})
	pureDUT := float64(res.Cycles) / dutHz
	if res.SimSeconds > 0 && !r.p.Platform.IsSoftware() {
		res.CommOverheadShare = (res.SimSeconds - pureDUT) / res.SimSeconds
		if res.CommOverheadShare < 0 {
			res.CommOverheadShare = 0
		}
	}
	if r.packer != nil {
		res.PacketUtilation = r.packer.Utilization()
	}
	if res.Exec != nil && res.Exec.Wall > 0 {
		res.ExecutedHz = float64(res.Cycles) / res.Exec.Wall.Seconds()
	}
	for _, f := range r.fusers {
		res.Fusion.Windows += f.Stats.Windows
		res.Fusion.FusedCommits += f.Stats.FusedCommits
		res.Fusion.Breaks += f.Stats.Breaks
		res.Fusion.NDEsAhead += f.Stats.NDEsAhead
		res.Fusion.Diffs += f.Stats.Diffs
		res.Fusion.DiffBytes += f.Stats.DiffBytes
		res.Fusion.RawState += f.Stats.RawState
	}
}

// Summary renders the artifact-style one-line result.
func (r *Result) Summary() string {
	status := "HIT GOOD TRAP"
	switch {
	case r.Mismatch != nil:
		status = "MISMATCH: " + r.Mismatch.Error()
	case !r.Finished:
		status = "ABORTED"
	case r.TrapCode != 0:
		status = fmt.Sprintf("HIT BAD TRAP (code %d)", r.TrapCode)
	}
	if r.Degraded {
		status += " [degraded: remote session lost, checked in-process]"
	}
	return fmt.Sprintf("[%s/%s/%s] %s — Simulation speed: %.2f KHz (%d cycles, %d instrs)",
		r.DUTName, r.Platform, r.Config, status, r.SpeedHz/1e3, r.Cycles, r.Instrs)
}
