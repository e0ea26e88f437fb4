package cosim

import (
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/bugs"
	"repro/internal/dut"
	"repro/internal/platform"
	"repro/internal/workload"
)

// executedParams builds one executed-mode run setup.
func executedParams(cfg string, executed bool) Params {
	opt, err := ParseConfig(cfg)
	if err != nil {
		panic(err)
	}
	opt.Executed = executed
	return Params{
		DUT: dut.XiangShanDefault(), Platform: platform.Palladium(), Opt: opt,
		Workload: scaled(workload.LinuxBoot(), 20_000), Seed: 7,
	}
}

// TestExecutedCleanAllConfigs: every configuration must finish cleanly in
// executed mode with the same verdict and cycle count as the modeled loop —
// the two loops consume the identical event stream.
func TestExecutedCleanAllConfigs(t *testing.T) {
	type input struct {
		name, cfg string
		tweak     func(*Params)
	}
	var inputs []input
	for _, cfg := range ConfigNames() {
		inputs = append(inputs, input{name: cfg, cfg: cfg})
	}
	// The multi-fuser tail flush and the ablation packings are where two
	// hardware sides could pack the end of the stream differently.
	inputs = append(inputs,
		input{"EBINSD-dual", "EBINSD", func(p *Params) { p.DUT = dut.XiangShanDefaultDual() }},
		input{"EB-fixed", "EB", func(p *Params) { p.Opt.FixedOffset = true }},
		input{"EBINSD-coupled", "EBINSD", func(p *Params) { p.Opt.CoupleOrder = true }},
	)
	for _, in := range inputs {
		in := in
		t.Run(in.name, func(t *testing.T) {
			mk := func(executed bool) *Result {
				p := executedParams(in.cfg, executed)
				if in.tweak != nil {
					in.tweak(&p)
				}
				return run(t, p)
			}
			seq, exe := mk(false), mk(true)
			if exe.Mismatch != nil {
				t.Fatalf("spurious executed mismatch: %v", exe.Mismatch)
			}
			if !exe.Finished || exe.TrapCode != seq.TrapCode {
				t.Fatalf("executed verdict (fin=%v code=%d) != modeled (fin=%v code=%d)",
					exe.Finished, exe.TrapCode, seq.Finished, seq.TrapCode)
			}
			if exe.Cycles != seq.Cycles || exe.Instrs != seq.Instrs {
				t.Errorf("executed ran %d cycles/%d instrs, modeled %d/%d",
					exe.Cycles, exe.Instrs, seq.Cycles, seq.Instrs)
			}
			if exe.Invokes != seq.Invokes || exe.WireBytes != seq.WireBytes {
				t.Errorf("executed link traffic (%d invokes, %d B) != modeled (%d, %d B)",
					exe.Invokes, exe.WireBytes, seq.Invokes, seq.WireBytes)
			}
			if exe.Exec == nil || exe.Exec.Transfers == 0 {
				t.Fatal("executed run reported no pipeline metrics")
			}
			if exe.ExecutedHz <= 0 {
				t.Error("ExecutedHz not computed")
			}
			if seq.Exec != nil {
				t.Error("modeled run unexpectedly carries pipeline metrics")
			}
		})
	}
}

// TestExecutedOverlapSpeedup is the acceptance measurement: with real
// concurrency, the non-blocking configuration (EBIN) must beat its
// blocking counterpart (EB) on wall-clock time, because DUT emulation and
// reference checking genuinely overlap.
func TestExecutedOverlapSpeedup(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 || runtime.NumCPU() < 2 {
		t.Skip("needs ≥2 CPUs to observe overlap")
	}
	mk := func(cfg string) *Result {
		p := executedParams(cfg, true)
		p.Workload = scaled(workload.LinuxBoot(), 60_000)
		return run(t, p)
	}
	// One EB/EBIN pair can flip under CPU contention, so up to three
	// interleaved attempts run; one showing both overlap and a wall-clock
	// win passes.
	for attempt := 0; attempt < 3; attempt++ {
		eb := mk("EB")
		ebin := mk("EBIN")
		if ebin.Exec == nil || eb.Exec == nil {
			t.Fatal("missing pipeline metrics")
		}
		speedup := eb.Exec.Wall.Seconds() / ebin.Exec.Wall.Seconds()
		t.Logf("attempt %d: EB wall %v, EBIN wall %v, speedup %.2fx (overlap %.0f%%, backpressure %d)",
			attempt, eb.Exec.Wall, ebin.Exec.Wall, speedup,
			ebin.Exec.OverlapShare()*100, ebin.Exec.Backpressure)
		if ebin.Exec.Overlap() > 0 && speedup > 1.0 {
			return
		}
	}
	t.Error("in 3 attempts executed EBIN never both overlapped its stages and beat blocking EB")
}

// TestCompareModesFreshHooks: bug triggers are stateful counters, so the
// comparison must rebuild the hooks before every one of its eight runs —
// with fresh hooks, every configuration detects the bug in both modes.
func TestCompareModesFreshHooks(t *testing.T) {
	if testing.Short() {
		t.Skip("bug comparison is long")
	}
	b, ok := bugs.ByID("load-sign-extension")
	if !ok {
		t.Fatal("bug missing from library")
	}
	p := executedParams("Z", false)
	p.Workload = scaled(workload.LinuxBoot(), 120_000)
	p.Seed = 21
	cmp, err := CompareModes(p, func() arch.Hooks { return b.Hooks(0) })
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range cmp.Rows {
		if row.Modeled.Mismatch == nil || row.Executed.Mismatch == nil {
			t.Errorf("%s: bug undetected (modeled=%v executed=%v)",
				row.Config, row.Modeled.Mismatch, row.Executed.Mismatch)
		}
	}
}

// TestRunConcurrentMatchesSequential: the sweep runner must return the
// same results as running each configuration inline, in input order.
func TestRunConcurrentMatchesSequential(t *testing.T) {
	var ps []Params
	for _, cfg := range ConfigNames() {
		ps = append(ps, executedParams(cfg, false))
	}
	got, err := RunConcurrent(ps, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ps {
		want := run(t, p)
		if got[i] == nil {
			t.Fatalf("row %d missing", i)
		}
		if got[i].Config != want.Config || got[i].SpeedHz != want.SpeedHz ||
			got[i].Cycles != want.Cycles || got[i].WireBytes != want.WireBytes {
			t.Errorf("row %d (%s): concurrent result diverges from sequential", i, want.Config)
		}
	}
}

// TestRunConcurrentPropagatesError: a failing run must surface its error.
func TestRunConcurrentPropagatesError(t *testing.T) {
	bad := executedParams("Z", false)
	bad.MaxCycles = 10 // guaranteed to abort
	_, err := RunConcurrent([]Params{executedParams("Z", false), bad}, 2)
	if err == nil {
		t.Fatal("expected an error from the aborted run")
	}
}

// TestCompareModes: the comparison helper must produce all four rows with
// executed metrics and agreeing verdicts.
func TestCompareModes(t *testing.T) {
	p := executedParams("Z", false)
	p.Workload = scaled(workload.LinuxBoot(), 8_000)
	cmp, err := CompareModes(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(cmp.Rows))
	}
	for i, row := range cmp.Rows {
		if row.Modeled.Mismatch != nil || row.Executed.Mismatch != nil {
			t.Errorf("%s: spurious mismatch", row.Config)
		}
		if row.Executed.Exec == nil {
			t.Errorf("%s: executed row missing metrics", row.Config)
		}
		if i > 0 && cmp.ModeledSpeedup(i) <= 0 {
			t.Errorf("%s: no modeled speedup computed", row.Config)
		}
		if cmp.ExecutedSpeedup(i) <= 0 {
			t.Errorf("%s: no executed speedup computed", row.Config)
		}
	}
}

// TestPlatformPipelineConstants: a run's queue bound and packet size come
// from its Platform's QueueDepth and PacketBytes, on both the executed
// pipeline and the modeled link.
func TestPlatformPipelineConstants(t *testing.T) {
	p := executedParams("EBIN", true)
	p.Workload = scaled(workload.LinuxBoot(), 4_000)
	// A queue bound of 1 forces near-lockstep pipelining; the run must still
	// verify cleanly and report the tightened queue in its metrics.
	p.Platform.QueueDepth = 1
	p.Platform.PacketBytes = 2048
	res := run(t, p)
	if res.Mismatch != nil {
		t.Fatalf("mismatch with QueueDepth 1 / PacketBytes 2048: %v", res.Mismatch)
	}
	if res.Exec.QueuePeak > 1 {
		t.Fatalf("queue peak %d with QueueDepth 1", res.Exec.QueuePeak)
	}
	// EBIN sends every packet whole, so each modeled transfer is exactly
	// PacketBytes on the link.
	if res.Invokes == 0 || res.WireBytes != res.Invokes*2048 {
		t.Fatalf("link carried %d B in %d invokes, want 2048 B per invoke",
			res.WireBytes, res.Invokes)
	}
}
