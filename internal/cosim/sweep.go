package cosim

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/transport"
)

// RunConcurrent executes a batch of independent co-simulations on a bounded
// worker pool and returns their results in input order. Every run owns its
// full state (workload image clones, DUT, reference models), so runs never
// share memory — this is the sweep runner behind multi-configuration
// experiments (configs × workloads × DUTs), scaling them across host cores.
//
// workers ≤ 0 selects GOMAXPROCS. Once a run fails, the runs not yet started
// are skipped (in-flight ones complete) and the lowest-index error is
// returned.
func RunConcurrent(ps []Params, workers int) ([]*Result, error) {
	results, errs := runPool(ps, workers, true)
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// RunConcurrentAll executes the whole batch on a bounded worker pool and
// reports per-index outcomes: results[i] and errs[i] are index i's result and
// error, exactly one of them non-nil. Unlike RunConcurrent, an error never
// skips the remaining runs — every index is evaluated — so the outcome set is
// independent of scheduling order and worker count. This is the runner for
// callers that treat failures as data, like a fuzzing campaign where a hung
// candidate (ErrCycleLimit) is itself a deterministic observation.
func RunConcurrentAll(ps []Params, workers int) (results []*Result, errs []error) {
	return runPool(ps, workers, false)
}

// runPool is the worker pool behind both sweeps. With stopOnErr, the feeder
// stops handing out indexes once any run has failed (skipped indexes keep a
// nil result and a nil error).
func runPool(ps []Params, workers int, stopOnErr bool) ([]*Result, []error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(ps) {
		workers = len(ps)
	}
	results := make([]*Result, len(ps))
	errs := make([]error, len(ps))

	jobs := make(chan int)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if results[i], errs[i] = Run(ps[i]); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	for i := range ps {
		if stopOnErr && failed.Load() {
			break
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results, errs
}

// ModeRow pairs the analytic (modeled) and executed results of one named
// configuration. Remote is non-nil only when the comparison ran against a
// difftestd server (Params.RemoteAddr set): the same hardware producer
// streaming over a real socket instead of an in-process channel. Shm is
// non-nil only with Params.ShmLoopback: the same networked protocol, but
// over the shared-memory ring transport to an in-process server — the
// same-host fast-path operating point.
type ModeRow struct {
	Config   string
	Modeled  *Result
	Executed *Result
	Remote   *Result
	Shm      *Result
}

// ModeComparison reports modeled-vs-executed behavior across the artifact
// configurations for one DUT/platform/workload setup.
type ModeComparison struct {
	Rows []ModeRow
}

// ConfigNames lists the artifact configurations in optimization order.
func ConfigNames() []string { return []string{"Z", "EB", "EBIN", "EBINSD"} }

// CompareModes runs every named configuration twice — once through the
// analytic model and once through the executed concurrent pipeline — and
// reports both. The modeled runs predict the speedup from the platform cost
// model; the executed runs measure the wall-clock overlap the concurrency
// actually achieves on this host. When p.RemoteAddr is set, each
// configuration additionally runs a third time with the software side on the
// difftestd server at that address, so one table compares modeled SpeedHz,
// in-process ExecutedHz, and networked ExecutedHz. When p.ShmLoopback is
// set, a fourth pass per configuration streams over the shared-memory ring
// transport to an in-process server (startShmLoopback), adding the
// same-host fast path to the same table.
//
// freshHooks, when non-nil, rebuilds the injection hooks before every run
// and overrides p.Hooks. Bug triggers are stateful counters, so sharing one
// hooks value across the eight runs would fire the corruption in only the
// first run to reach the trigger threshold.
func CompareModes(p Params, freshHooks func() arch.Hooks) (*ModeComparison, error) {
	cmp := &ModeComparison{}
	ablations := p.Opt
	remoteAddr := p.RemoteAddr
	shmSpec := ""
	if p.ShmLoopback {
		spec, stop, err := startShmLoopback(p.Platform.ShmRingBytes)
		if err != nil {
			return nil, err
		}
		defer stop()
		shmSpec = spec
	}
	for _, name := range ConfigNames() {
		opt, err := ParseConfig(name)
		if err != nil {
			return nil, err
		}
		opt.CoupleOrder = ablations.CoupleOrder
		opt.FixedOffset = ablations.FixedOffset
		opt.MaxFuse = ablations.MaxFuse

		p.Opt = opt
		// Bug triggers are stateful, so every pass rebuilds the hooks.
		pass := func(executed bool, addr string) (*Result, error) {
			p.Opt.Executed, p.RemoteAddr = executed, addr
			if freshHooks != nil {
				p.Hooks = freshHooks()
			}
			return Run(p)
		}
		row := ModeRow{Config: name}
		if row.Modeled, err = pass(false, ""); err != nil {
			return nil, err
		}
		if row.Executed, err = pass(true, ""); err != nil {
			return nil, err
		}
		if remoteAddr != "" {
			if row.Remote, err = pass(true, remoteAddr); err != nil {
				return nil, err
			}
		}
		if shmSpec != "" {
			if row.Shm, err = pass(true, shmSpec); err != nil {
				return nil, err
			}
		}
		cmp.Rows = append(cmp.Rows, row)
	}
	return cmp, nil
}

// startShmLoopback serves an in-process difftestd over a shared-memory ring
// rendezvous in a fresh temp directory, returning the dial spec and a stop
// function that shuts the server down and removes the directory. ringBytes ≤
// 0 takes the transport default.
func startShmLoopback(ringBytes int) (spec string, stop func(), err error) {
	dir, err := os.MkdirTemp("", "difftest-shm-*")
	if err != nil {
		return "", nil, err
	}
	spec = "shm://" + dir
	if ringBytes > 0 {
		spec = fmt.Sprintf("%s?ring=%d", spec, ringBytes)
	}
	l, err := transport.Listen(spec)
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, fmt.Errorf("cosim: shm loopback: %w", err)
	}
	srv := transport.NewServer(transport.ServerConfig{NewSession: NewSession})
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(l)
	}()
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
		os.RemoveAll(dir)
	}
	return spec, stop, nil
}

// ModeledSpeedup returns row i's modeled (simulated-time) speedup over the
// modeled baseline (row 0).
func (c *ModeComparison) ModeledSpeedup(i int) float64 {
	if len(c.Rows) == 0 || c.Rows[0].Modeled.SpeedHz == 0 {
		return 0
	}
	return c.Rows[i].Modeled.SpeedHz / c.Rows[0].Modeled.SpeedHz
}

// wallSpeedup is base's measured wall clock over row's: the speedup of one
// executed/remote/shm result relative to the same column's row 0. Zero when
// either side did not run or carries no pipeline metrics.
func wallSpeedup(base, row *Result) float64 {
	if base == nil || row == nil || base.Exec == nil || row.Exec == nil || row.Exec.Wall <= 0 {
		return 0
	}
	return base.Exec.Wall.Seconds() / row.Exec.Wall.Seconds()
}

// ExecutedSpeedup returns row i's measured wall-clock speedup over the
// executed baseline (row 0): baselineWall / rowWall.
func (c *ModeComparison) ExecutedSpeedup(i int) float64 {
	if len(c.Rows) == 0 {
		return 0
	}
	return wallSpeedup(c.Rows[0].Executed, c.Rows[i].Executed)
}

// RemoteSpeedup returns row i's measured networked wall-clock speedup over
// the networked baseline (row 0), or 0 when the comparison ran without a
// difftestd server.
func (c *ModeComparison) RemoteSpeedup(i int) float64 {
	if len(c.Rows) == 0 {
		return 0
	}
	return wallSpeedup(c.Rows[0].Remote, c.Rows[i].Remote)
}

// ShmSpeedup returns row i's measured shared-memory wall-clock speedup over
// the shared-memory baseline (row 0), or 0 when the comparison ran without
// Params.ShmLoopback.
func (c *ModeComparison) ShmSpeedup(i int) float64 {
	if len(c.Rows) == 0 {
		return 0
	}
	return wallSpeedup(c.Rows[0].Shm, c.Rows[i].Shm)
}
