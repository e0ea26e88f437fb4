package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/checker"
	"repro/internal/cosim"
	"repro/internal/event"
	"repro/internal/loggp"
	"repro/internal/replay"
	"repro/internal/squash"
)

// env is one workload after set-up: its op list with oracles, and the
// servers its clients dial.
type env struct {
	def     workloadDef
	ops     []*op
	dir     string
	backend *backend

	goroutines0  int
	gets0, puts0 uint64
}

// setUp does everything a run needs before its first timed op: generate the
// op list, compute the sequential oracles, start the servers, and run one
// warm-up op through the real path. Its wall time is the setup_s metric.
//
// direct, for a routed workload, dials one shard without the router.
func setUp(def workloadDef, seed int64, tmpRoot string, direct bool) (*env, error) {
	e := &env{def: def, goroutines0: runtime.NumGoroutine()}
	e.gets0, e.puts0 = event.PoolStats()
	var err error
	if e.ops, err = buildOps(def, seed); err != nil {
		return nil, err
	}
	// Bug verdicts are compared op by op; clean workloads pin the simulated
	// counters of their first op (the rest must finish without a mismatch).
	for i, o := range e.ops {
		if i > 0 && def.bugSeeds == 0 {
			break
		}
		if o.oracle, err = sequential(o); err != nil {
			return nil, fmt.Errorf("%s: oracle for %s: %w", def.name, o.label, err)
		}
	}
	if e.dir, err = os.MkdirTemp(tmpRoot, "run-"); err != nil {
		return nil, err
	}
	if e.backend, err = startBackend(def.link, e.dir, direct); err != nil {
		os.RemoveAll(e.dir)
		return nil, err
	}
	if _, _, err := e.runOp(e.ops[0]); err != nil {
		e.tearDown(false)
		return nil, fmt.Errorf("%s: warm-up op: %w", def.name, err)
	}
	return e, nil
}

// sequential runs an op the way the repo's equivalence property defines the
// reference: single-threaded, in-process, analytic overlap.
func sequential(o *op) (*cosim.Result, error) {
	p, _ := o.fresh("")
	p.Opt.Executed = false
	return cosim.Run(p)
}

// tearDown stops the servers and removes the temp dir. With verify it also
// checks what a finished workload must leave behind: reaped router journals,
// a balanced buffer pool, and no goroutine still serving.
func (e *env) tearDown(verify bool) error {
	var errs []error
	if verify {
		errs = append(errs, e.backend.settle())
	}
	errs = append(errs, e.backend.stop(), os.RemoveAll(e.dir))
	if !verify {
		return errors.Join(errs...)
	}
	if gets, puts := event.PoolStats(); gets-e.gets0 != puts-e.puts0 {
		errs = append(errs, fmt.Errorf("buffer pool: %d gets vs %d puts", gets-e.gets0, puts-e.puts0))
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > e.goroutines0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > e.goroutines0 {
		errs = append(errs, fmt.Errorf("%d goroutines outlived the workload", n-e.goroutines0))
	}
	return errors.Join(errs...)
}

// runOp drives one op through the unmodified cosim.Run entry point and
// checks its verdict.
func (e *env) runOp(o *op) (*cosim.Result, time.Duration, error) {
	p, _ := o.fresh(e.backend.addr)
	t0 := time.Now()
	res, err := cosim.Run(p)
	wall := time.Since(t0)
	if err != nil {
		return nil, wall, err
	}
	return res, wall, check(o, res)
}

// check holds a result against the op's oracle. Without an oracle the op
// must simply finish clean.
func check(o *op, res *cosim.Result) error {
	if res.Degraded {
		return errors.New("remote session lost, run degraded to in-process checking")
	}
	want := o.oracle
	if want == nil || want.Mismatch == nil {
		switch {
		case res.Mismatch != nil:
			return fmt.Errorf("unexpected mismatch: %v", res.Mismatch)
		case !res.Finished:
			return errors.New("run did not finish")
		case want != nil:
			return diffCounters(want, res)
		}
		return nil
	}
	if !sameMismatch(want.Mismatch, res.Mismatch) {
		return fmt.Errorf("mismatch identity: got %v, oracle %v", res.Mismatch, want.Mismatch)
	}
	if !sameMismatch(detailed(want.Replay), detailed(res.Replay)) {
		return fmt.Errorf("replay localisation: got %v, oracle %v", detailed(res.Replay), detailed(want.Replay))
	}
	return nil
}

func detailed(r *replay.Report) *checker.Mismatch {
	if r == nil {
		return nil
	}
	return r.Detailed
}

func sameMismatch(a, b *checker.Mismatch) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Core == b.Core && a.Kind == b.Kind && a.Seq == b.Seq && a.PC == b.PC
}

// simCounters are the simulated statistics a host-speed change must leave
// bit-identical.
type simCounters struct {
	Cycles, Instrs, WireBytes, Invokes, TrapCode uint64
	Fusion                                       squash.Stats
}

func countersOf(r *cosim.Result) simCounters {
	return simCounters{r.Cycles, r.Instrs, r.WireBytes, r.Invokes, r.TrapCode, r.Fusion}
}

func diffCounters(want, got *cosim.Result) error {
	if w, g := countersOf(want), countersOf(got); w != g {
		return fmt.Errorf("simulated counters: got %+v, oracle %+v", g, w)
	}
	return nil
}

// sample is one timed op.
type sample struct {
	wall   time.Duration
	instrs uint64
}

// execTotals sums the public counters of real runs (pipeline.Metrics,
// squash.Stats, loggp.Breakdown) over ops.
type execTotals struct {
	wall, producerBusy, consumerBusy, overlap time.Duration

	transfers, backpressure, tokenStalls, ringParks uint64
	queueDepth                                      float64 // Σ mean depth × transfers
	fusion                                          squash.Stats
	breakdown                                       loggp.Breakdown
}

func addFusion(t *squash.Stats, s squash.Stats) {
	t.Windows += s.Windows
	t.FusedCommits += s.FusedCommits
	t.Breaks += s.Breaks
	t.NDEsAhead += s.NDEsAhead
	t.Diffs += s.Diffs
	t.DiffBytes += s.DiffBytes
	t.RawState += s.RawState
}

func (t *execTotals) add(r *cosim.Result) {
	t.breakdown.Startup += r.Breakdown.Startup
	t.breakdown.Transmission += r.Breakdown.Transmission
	t.breakdown.Software += r.Breakdown.Software
	addFusion(&t.fusion, r.Fusion)
	if m := r.Exec; m != nil {
		t.wall += m.Wall
		t.producerBusy += m.ProducerBusy
		t.consumerBusy += m.ConsumerBusy
		t.overlap += m.Overlap()
		t.transfers += m.Transfers
		t.backpressure += m.Backpressure
		t.tokenStalls += m.TokenStalls
		t.ringParks += m.RingParks
		t.queueDepth += m.MeanQueueDepth() * float64(m.Transfers)
	}
}

// runStats is what one closed-loop run measured.
type runStats struct {
	wall      time.Duration
	samples   []sample
	attempted int
	failed    int
	errs      []error // first few op failures

	// firstPass holds the result of each op's first execution, by op index:
	// a fixed set whatever the host speed, so the simulated metrics taken
	// from it compare exactly between commits.
	firstPass []*cosim.Result
	exec      execTotals

	cpu        time.Duration
	mallocs    uint64 // includes tinyAllocs
	tinyAllocs uint64 // allocations packed into shared 16-byte blocks
	allocBytes uint64
	gcCycles   uint32
	poolGets   uint64
}

func (s *runStats) instrs() uint64 {
	var n uint64
	for _, x := range s.samples {
		n += x.instrs
	}
	return n
}

// rusage reads the process's resource use; the zero value stands in if the
// kernel refuses, which RUSAGE_SELF never does.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// runtimeMetric reads one runtime/metrics value as a float, 0 if this Go
// version does not have it.
func runtimeMetric(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindUint64:
		return float64(s[0].Value.Uint64())
	case metrics.KindFloat64:
		return s[0].Value.Float64()
	}
	return 0
}

// tinyAllocs counts allocations the runtime packed into shared blocks.
func tinyAllocs() uint64 { return uint64(runtimeMetric("/gc/heap/tiny/allocs:objects")) }

// run is the closed loop: each client runs its next op only after the
// previous one returned. Ops are taken from the list in order and the list
// repeats until budget has elapsed; every op runs at least once.
func (e *env) run(ops []*op, budget time.Duration) *runStats {
	st := &runStats{firstPass: make([]*cosim.Result, len(ops))}

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gets0, _ := event.PoolStats()
	tiny0 := tinyAllocs()
	cpu0 := cpuTime()
	start := time.Now()

	var (
		next atomic.Int64
		mu   sync.Mutex // guards st while the clients run
		wg   sync.WaitGroup
	)
	client := func() {
		defer wg.Done()
		for {
			i := int(next.Add(1)) - 1
			if i >= len(ops) && time.Since(start) >= budget {
				return
			}
			o := ops[i%len(ops)]
			res, wall, err := e.runOp(o)
			mu.Lock()
			st.attempted++
			if err != nil {
				st.failed++
				if len(st.errs) < 3 {
					st.errs = append(st.errs, fmt.Errorf("op %d (%s): %w", i, o.label, err))
				}
				mu.Unlock()
				continue
			}
			instrs := res.Instrs
			if o.bug != nil {
				// The executed producer runs a varying distance past the
				// mismatch; the work the op had to do is the oracle's.
				instrs = o.oracle.Instrs
			}
			st.samples = append(st.samples, sample{wall, instrs})
			st.exec.add(res)
			if i < len(ops) {
				st.firstPass[i] = res
			}
			mu.Unlock()
		}
	}
	for c := 0; c < e.def.clients; c++ {
		wg.Add(1)
		go client()
	}
	wg.Wait()

	st.wall = time.Since(start)
	st.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	gets1, _ := event.PoolStats()
	st.mallocs = ms1.Mallocs - ms0.Mallocs
	st.tinyAllocs = tinyAllocs() - tiny0
	st.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	st.gcCycles = ms1.NumGC - ms0.NumGC
	st.poolGets = gets1 - gets0
	return st
}

// simulated returns the fixed result set the simulated metrics come from:
// the first pass for clean workloads, the oracles for bughunt (an executed
// run's counters past a mismatch depend on how far the producer ran ahead).
func (e *env) simulated(st *runStats) []*cosim.Result {
	out := make([]*cosim.Result, 0, len(e.ops))
	for i, o := range e.ops {
		r := st.firstPass[i]
		if e.def.bugSeeds > 0 {
			r = o.oracle
		}
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// endToEnd computes the user-visible metrics of one timed run, and the
// sample counts behind its percentiles.
func endToEnd(st *runStats, sim []*cosim.Result, setupS float64) (map[string]metric, summary) {
	instrs := float64(st.instrs())
	perInstr := make([]float64, len(st.samples))
	for i, s := range st.samples {
		perInstr[i] = ratio(float64(s.wall.Nanoseconds()), float64(s.instrs))
	}
	lat := summarize(perInstr)

	var cycles, simInstrs, wireBytes, invokes uint64
	var simSeconds float64
	for _, r := range sim {
		cycles += r.Cycles
		simInstrs += r.Instrs
		wireBytes += r.WireBytes
		invokes += r.Invokes
		simSeconds += r.SimSeconds
	}
	return map[string]metric{
		"instrs_per_s":          {ratio(instrs, st.wall.Seconds()), "instrs/s"},
		"ns_per_instr_p50":      {lat.P50, "ns"},
		"ns_per_instr_p75":      {lat.P75, "ns"},
		"cpu_ns_per_instr":      {ratio(float64(st.cpu.Nanoseconds()), instrs), "ns"},
		"allocs_per_instr":      {ratio(float64(st.mallocs), instrs), "allocs"},
		"alloc_bytes_per_instr": {ratio(float64(st.allocBytes), instrs), "B"},
		"peak_rss_mb":           {peakRSSMB(), "MB"},
		"wire_bytes_per_instr":  {ratio(float64(wireBytes), float64(simInstrs)), "B"},
		"invokes_per_kinstr":    {ratio(float64(invokes), float64(simInstrs)) * 1000, "count"},
		"modeled_speed_hz":      {ratio(float64(cycles), simSeconds), "Hz"},
		"setup_s":               {setupS, "s"},
	}, lat
}
