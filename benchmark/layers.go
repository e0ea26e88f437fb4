package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/cosim"
	"repro/internal/event"
)

// The traced run produces every per-layer number. It runs apart from the
// timed run, so tracing costs the end-to-end metrics nothing. Three sources:
// the ledger driver (busy time and counts per layer), the public counters of
// a real closed-loop run, and an allocation profile of one pass charged to
// packages.

// ledgerReps is how often a clean workload's op is re-driven, each time
// alternating with the plain sequential run it is reconciled against, so
// that one slow stretch of the host does not decide the reconcile fraction.
const ledgerReps = 3

// profiledBugInstrs bounds the bug ops of the allocation pass: profiling
// every allocation slows a run severalfold, the short ops are where set-up
// allocation shows, and the few long ones only repeat the steady state that
// linux_ebinsd_exec already profiles.
const profiledBugInstrs = 40_000

// ledgerNumbers is what the ledger pass yields beyond the per-layer totals.
type ledgerNumbers struct {
	led    *ledger
	instrs uint64 // DUT instructions over all ledger ops and reps

	monitorEvents, monitorBytes uint64
	bufferedPeak                uint64
	packets                     uint64
	utilization                 float64 // Σ over drives
	drives                      int

	tracedNs, plainNs int64 // Σ wall of the ledger drives / of cosim.Run on the same ops
	refNs             int64
	refInstrs         uint64

	replayMs, replayed, lag []float64 // per op that ended in Replay
}

// ledgerPass re-drives ops through the ledger and, for each drive, runs the
// plain sequential cosim.Run on the same inputs: the two must agree on the
// verdict and every simulated counter, and their walls give the reconcile
// and overhead fractions.
func ledgerPass(ops []*op, reps int, rec *recorder) (*ledgerNumbers, error) {
	n := &ledgerNumbers{led: newLedger(rec)}
	for rep := 0; rep < reps; rep++ {
		for i, o := range ops {
			t0 := time.Now()
			plain, err := sequential(o)
			if err != nil {
				return nil, err
			}
			n.plainNs += time.Since(t0).Nanoseconds()

			p, fired := o.fresh("")
			t0 = time.Now()
			run, err := n.led.drive(rep*len(ops)+i, p)
			if err != nil {
				return nil, err
			}
			n.tracedNs += time.Since(t0).Nanoseconds()

			got := run.res
			if err := errors.Join(ledgerVerdict(plain, got), diffCounters(plain, got)); err != nil {
				return nil, fmt.Errorf("ledger disagrees with cosim.Run on %s: %w", o.label, err)
			}
			n.instrs += got.Instrs
			n.monitorEvents += got.MonitorEvents
			n.monitorBytes += got.MonitorBytes
			n.packets += run.packer.Packets
			n.utilization += got.PacketUtilation
			n.drives++
			if run.bufferedPeak > n.bufferedPeak {
				n.bufferedPeak = run.bufferedPeak
			}
			if got.Replay != nil && rep == 0 {
				n.replayMs = append(n.replayMs, float64(run.replayNs)/1e6)
				n.replayed = append(n.replayed, float64(got.Replay.Replayed))
				if fired != nil && fired.Manifested {
					n.lag = append(n.lag, float64(got.Mismatch.Seq)-float64(fired.Instr))
				}
			}
			if rep == 0 && i == 0 {
				n.refNs, n.refInstrs = refStep(p, got.Instrs)
			}
		}
	}
	return n, nil
}

// ledgerVerdict compares everything about two sequential verdicts.
func ledgerVerdict(want, got *cosim.Result) error {
	switch {
	case want.Finished != got.Finished:
		return fmt.Errorf("finished: got %v, want %v", got.Finished, want.Finished)
	case !sameMismatch(want.Mismatch, got.Mismatch):
		return fmt.Errorf("mismatch: got %v, want %v", got.Mismatch, want.Mismatch)
	case !sameMismatch(detailed(want.Replay), detailed(got.Replay)):
		return fmt.Errorf("replay: got %v, want %v", detailed(got.Replay), detailed(want.Replay))
	case want.SimSeconds != got.SimSeconds:
		return fmt.Errorf("simulated seconds: got %v, want %v", got.SimSeconds, want.SimSeconds)
	}
	return nil
}

// heapSampler polls the runtime's heap-in-use gauge for its peak.
type heapSampler struct {
	quit chan struct{}
	done chan struct{}
	peak float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			inUse := runtimeMetric("/memory/classes/heap/objects:bytes") + runtimeMetric("/memory/classes/heap/unused:bytes")
			if inUse > h.peak {
				h.peak = inUse
			}
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the peak in MB.
func (h *heapSampler) stop() float64 {
	close(h.quit)
	<-h.done
	return h.peak / (1 << 20)
}

func gcCPUSeconds() float64 { return runtimeMetric("/cpu/classes/gc/total:cpu-seconds") }

// traced runs the per-layer pass of one workload.
func traced(def workloadDef, o options, budget time.Duration) (result, error) {
	seed := o.seed
	m := make(map[string]metric)
	var failures []error
	attempted, failed := 0, 0

	// The direct-to-shard pass of the routed workload goes first, so its
	// peak RSS is read before the router has held a journal.
	var direct *runStats
	var directRSS float64
	if def.link == routed {
		e, err := setUp(def, seed, o.tmpRoot, true)
		if err != nil {
			return result{}, err
		}
		direct = e.run(e.ops, budget/2)
		directRSS = peakRSSMB()
		failures = append(failures, e.tearDown(true))
		failures = append(failures, direct.errs...)
		attempted, failed = attempted+direct.attempted, failed+direct.failed
	}

	heap := startHeapSampler()
	e, err := setUp(def, seed, o.tmpRoot, false)
	if err != nil {
		heap.stop()
		return result{}, err
	}
	gc0 := gcCPUSeconds()
	st := e.run(e.ops, budget/2)
	gcCPU := gcCPUSeconds() - gc0
	heapPeak := heap.stop()
	routedRSS := peakRSSMB()
	failures = append(failures, st.errs...)
	attempted, failed = attempted+st.attempted, failed+st.failed
	var migrations, refused uint64
	if r := e.backend.router; r != nil {
		migrations, refused = r.Migrations(), r.Refused()
	}

	// The ledger drives every bug op once, or the first clean op a few
	// times; the allocation pass profiles the same ops, minus the long bug ops.
	rec := &recorder{}
	ledgerOps, profiled, reps := e.ops[:1], e.ops[:1], ledgerReps
	if def.bugSeeds > 0 {
		ledgerOps, profiled, reps = e.ops, nil, 1
		for _, x := range e.ops {
			if x.oracle.Instrs <= profiledBugInstrs {
				profiled = append(profiled, x)
			}
		}
	}
	led, err := ledgerPass(ledgerOps, reps, rec)
	if err != nil {
		e.tearDown(false)
		return result{}, err
	}

	// Allocation attribution: one real pass with every allocation profiled.
	var attrInstrs, attrMallocs uint64
	byPkg, err := attributeAllocs(func() error {
		pass := e.run(profiled, 0) // budget 0: each op exactly once
		// The runtime does not profile an allocation it packs into an
		// already profiled tiny block, so those are not attributable.
		attrInstrs, attrMallocs = pass.instrs(), pass.mallocs-pass.tinyAllocs
		attempted, failed = attempted+pass.attempted, failed+pass.failed
		return errors.Join(pass.errs...)
	})
	if err != nil {
		failures = append(failures, fmt.Errorf("allocation pass: %w", err))
	}

	for _, scheme := range []string{"unix", "shm"} {
		f, err := echoFrames(scheme + "://" + filepath.Join(e.dir, "echo-"+scheme))
		if err != nil {
			failures = append(failures, fmt.Errorf("%s frame loop: %w", scheme, err))
		}
		m["transport.frame_rtt_us_p50."+scheme] = metric{f.rttUsP50, "us"}
		m["transport.stream_mb_per_s."+scheme] = metric{f.streamMBps, "MB/s"}
	}

	failures = append(failures, e.tearDown(true))
	gets, puts := event.PoolStats()

	path, err := rec.write(o.outDir, def.name, seed)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("%s: %d spans written to %s\n", def.name, len(rec.spans), path)

	layerMetrics(m, st, led, rec)
	allocMetrics(m, byPkg, attrInstrs, attrMallocs)
	instrs := float64(st.instrs())
	m["runtime.gc_cpu_frac"] = metric{ratio(gcCPU, st.cpu.Seconds()), "ratio"}
	m["runtime.gc_cycles"] = metric{float64(st.gcCycles), "count"}
	m["runtime.heap_inuse_peak_mb"] = metric{heapPeak, "MB"}
	m["event.pool_gets_per_kinstr"] = metric{ratio(float64(st.poolGets), instrs) * 1000, "count"}
	m["event.pool_leaked"] = metric{float64(gets-e.gets0) - float64(puts-e.puts0), "count"}
	var tax, sessionsPerS float64
	if direct != nil {
		routedIPS := ratio(instrs, st.wall.Seconds())
		directIPS := ratio(float64(direct.instrs()), direct.wall.Seconds())
		tax = 1 - ratio(routedIPS, directIPS)
		sessionsPerS = ratio(float64(len(st.samples)), st.wall.Seconds())
	} else {
		routedRSS = 0 // only the routed workload has a router to bill
	}
	m["fleet.direct_peak_rss_mb"] = metric{directRSS, "MB"}
	m["fleet.routed_peak_rss_mb"] = metric{routedRSS, "MB"}
	m["fleet.router_tax_frac"] = metric{tax, "ratio"}
	m["fleet.sessions_per_s"] = metric{sessionsPerS, "1/s"}
	m["fleet.migrations"] = metric{float64(migrations), "count"}
	m["fleet.refused"] = metric{float64(refused), "count"}

	err = errors.Join(failures...)
	if err != nil {
		fmt.Printf("%s: traced run failed a check:\n%v\n", def.name, err)
	}
	return result{Correct: err == nil && failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// layerMetrics fills the ledger- and counter-derived per-layer metrics.
func layerMetrics(m map[string]metric, st *runStats, n *ledgerNumbers, rec *recorder) {
	instrs := float64(n.instrs)
	perInstr := func(lay layer) metric {
		return metric{ratio(float64(n.led.total[lay].busy), instrs), "ns"}
	}
	generate := float64(n.led.total[layGenerate].busy) / 1e6
	setup := generate + float64(n.led.total[laySetup].busy)/1e6
	m["workload.generate_ms"] = metric{ratio(generate, float64(n.drives)), "ms"}
	m["cosim.setup_ms_per_op"] = metric{ratio(setup, float64(n.drives)), "ms"}
	m["dut.step_ns_per_instr"] = perInstr(layDUT)
	m["dut.events_per_instr"] = metric{ratio(float64(n.monitorEvents), instrs), "count"}
	m["dut.monitor_bytes_per_instr"] = metric{ratio(float64(n.monitorBytes), instrs), "B"}
	m["replay.add_ns_per_instr"] = perInstr(layReplayAdd)
	m["replay.buffered_bytes_peak"] = metric{float64(n.bufferedPeak), "B"}
	m["replay.run_ms_p50"] = metric{zeroIfNone(n.replayMs), "ms"}
	m["replay.replayed_records_p50"] = metric{zeroIfNone(n.replayed), "count"}
	m["replay.detect_lag_instrs_p50"] = metric{zeroIfNone(n.lag), "instrs"}
	m["squash.fuse_ns_per_instr"] = perInstr(layFuse)
	m["squash.desquash_ns_per_instr"] = perInstr(layDesquash)
	m["wire.from_records_ns_per_instr"] = perInstr(layFromRecords)
	m["wire.to_record_ns_per_instr"] = perInstr(layToRecord)
	m["batch.pack_ns_per_instr"] = perInstr(layPack)
	m["batch.unpack_ns_per_instr"] = perInstr(layUnpack)
	m["batch.packet_utilization"] = metric{ratio(n.utilization, float64(n.drives)), "ratio"}
	m["batch.packets_per_kinstr"] = metric{ratio(float64(n.packets), instrs) * 1000, "count"}
	m["checker.process_ns_per_instr"] = perInstr(layCheck)
	m["ref.step_ns_per_instr"] = metric{ratio(float64(n.refNs), float64(n.refInstrs)), "ns"}

	var sum int64
	for lay := range n.led.total {
		sum += n.led.total[lay].busy
	}
	var glue int64
	for id, self := range selfTimes(rec.spans) {
		if rec.spans[id].Parent < 0 {
			glue += self
		}
	}
	m["ledger.sum_ns_per_instr"] = metric{ratio(float64(sum), instrs), "ns"}
	m["ledger.glue_ns_per_instr"] = metric{ratio(float64(glue), instrs), "ns"}
	m["ledger.reconcile_frac"] = metric{ratio(float64(sum), float64(n.plainNs)), "ratio"}
	m["ledger.trace_overhead_frac"] = metric{ratio(float64(n.tracedNs), float64(n.plainNs)) - 1, "ratio"}

	// Public counters of the real closed-loop run.
	x := &st.exec
	wall := float64(x.wall)
	ktransfers := float64(x.transfers) / 1000
	m["pipeline.producer_busy_frac"] = metric{ratio(float64(x.producerBusy), wall), "ratio"}
	m["pipeline.consumer_busy_frac"] = metric{ratio(float64(x.consumerBusy), wall), "ratio"}
	m["pipeline.overlap_frac"] = metric{ratio(float64(x.overlap), wall), "ratio"}
	m["pipeline.backpressure_per_ktransfer"] = metric{ratio(float64(x.backpressure), ktransfers), "count"}
	m["pipeline.queue_mean_depth"] = metric{ratio(x.queueDepth, float64(x.transfers)), "count"}
	gap := x.wall - x.producerBusy - x.consumerBusy
	if gap < 0 {
		gap = 0 // overlapped stages: no serial handoff to account
	}
	m["pipeline.handoff_ns_per_transfer"] = metric{ratio(float64(gap), float64(x.transfers)), "ns"}
	m["pipeline.handoff_wall_frac"] = metric{ratio(float64(gap), wall), "ratio"}
	m["transport.token_stalls_per_ktransfer"] = metric{ratio(float64(x.tokenStalls), ktransfers), "count"}
	m["shmring.parks_per_ktransfer"] = metric{ratio(float64(x.ringParks), ktransfers), "count"}

	simInstrs := float64(st.instrs())
	m["squash.fusion_ratio"] = metric{x.fusion.FusionRatio(), "ratio"}
	m["squash.diff_bytes_per_instr"] = metric{ratio(float64(x.fusion.DiffBytes), simInstrs), "B"}
	m["squash.ndes_ahead_per_kinstr"] = metric{ratio(float64(x.fusion.NDEsAhead), simInstrs) * 1000, "count"}
	startup, transmission, software := x.breakdown.Shares()
	m["comm.modeled_startup_share"] = metric{startup, "ratio"}
	m["comm.modeled_transmission_share"] = metric{transmission, "ratio"}
	m["comm.modeled_software_share"] = metric{software, "ratio"}
}

func zeroIfNone(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	return median(samples)
}

// allocMetrics reports the per-package allocation bill of the profiled
// pass, and how much of the pass's malloc count the profile accounts for.
func allocMetrics(m map[string]metric, byPkg map[string]allocTally, instrs, mallocs uint64) {
	var objects int64
	for _, t := range byPkg {
		objects += t.objects
	}
	for _, pkg := range allocPackages {
		t := byPkg[pkg]
		m[pkg+".allocs_per_instr"] = metric{ratio(float64(t.objects), float64(instrs)), "allocs"}
		m[pkg+".alloc_bytes_per_instr"] = metric{ratio(float64(t.bytes), float64(instrs)), "B"}
	}
	m["ledger.alloc_attributed_frac"] = metric{ratio(float64(objects), float64(mallocs)), "ratio"}
}
