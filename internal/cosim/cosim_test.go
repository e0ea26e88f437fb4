package cosim

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/bugs"
	"repro/internal/dut"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/workload"
)

func scaled(p workload.Profile, n uint64) workload.Profile {
	p.TargetInstrs = n
	return p
}

func run(t *testing.T, p Params) *Result {
	t.Helper()
	res, err := Run(p)
	if err != nil {
		t.Fatalf("run %s/%s/%s: %v", p.DUT.Name, p.Platform.Name, p.Opt.Name(), err)
	}
	return res
}

func TestParseConfig(t *testing.T) {
	for _, name := range []string{"Z", "EB", "EBIN", "EBINSD", "ebinsd"} {
		if _, err := ParseConfig(name); err != nil {
			t.Errorf("ParseConfig(%q): %v", name, err)
		}
	}
	if _, err := ParseConfig("bogus"); err == nil {
		t.Error("bogus config accepted")
	}
}

// TestAllConfigsCheckClean is the central end-to-end property: every
// optimization level must reproduce the exact same verification verdict
// (clean run, good trap) as the baseline.
func TestAllConfigsCheckClean(t *testing.T) {
	for _, cfgName := range []string{"Z", "EB", "EBIN", "EBINSD"} {
		opt, _ := ParseConfig(cfgName)
		t.Run(cfgName, func(t *testing.T) {
			res := run(t, Params{
				DUT:      dut.XiangShanDefault(),
				Platform: platform.Palladium(),
				Opt:      opt,
				Workload: scaled(workload.LinuxBoot(), 25_000),
				Seed:     7,
			})
			if res.Mismatch != nil {
				t.Fatalf("spurious mismatch: %v", res.Mismatch)
			}
			if !res.Finished || res.TrapCode != 0 {
				t.Fatalf("did not hit good trap: finished=%v code=%d", res.Finished, res.TrapCode)
			}
			if res.SpeedHz <= 0 {
				t.Fatal("no speed computed")
			}
		})
	}
}

func TestSquashCleanAcrossDUTsAndProfiles(t *testing.T) {
	opt, _ := ParseConfig("EBINSD")
	for _, cfg := range dut.Configs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			res := run(t, Params{
				DUT: cfg, Platform: platform.Palladium(), Opt: opt,
				Workload: scaled(workload.LinuxBoot(), 20_000), Seed: 11,
			})
			if res.Mismatch != nil {
				t.Fatalf("spurious mismatch: %v", res.Mismatch)
			}
		})
	}
	for _, prof := range workload.Profiles() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			res := run(t, Params{
				DUT: dut.XiangShanDefault(), Platform: platform.FPGA(), Opt: opt,
				Workload: scaled(prof, 20_000), Seed: 13,
			})
			if res.Mismatch != nil {
				t.Fatalf("spurious mismatch: %v", res.Mismatch)
			}
		})
	}
}

// TestOptimizationLadder verifies the Table-5 shape: each optimization level
// is faster than the previous, and the full stack approaches DUT-only speed.
func TestOptimizationLadder(t *testing.T) {
	wl := scaled(workload.LinuxBoot(), 25_000)
	var speeds []float64
	for _, cfgName := range []string{"Z", "EB", "EBIN", "EBINSD"} {
		opt, _ := ParseConfig(cfgName)
		res := run(t, Params{
			DUT: dut.XiangShanDefault(), Platform: platform.Palladium(),
			Opt: opt, Workload: wl, Seed: 7,
		})
		speeds = append(speeds, res.SpeedHz)
		t.Logf("%-7s %8.1f KHz (util %.2f, fusion ratio %.1f, overhead %.2f%%)",
			cfgName, res.SpeedHz/1e3, res.PacketUtilation, res.Fusion.FusionRatio(),
			res.CommOverheadShare*100)
	}
	for i := 1; i < len(speeds); i++ {
		if speeds[i] <= speeds[i-1] {
			t.Errorf("level %d (%.1f KHz) not faster than level %d (%.1f KHz)",
				i, speeds[i]/1e3, i-1, speeds[i-1]/1e3)
		}
	}
	// Full-stack speedup over baseline should be in the paper's 74-80×
	// territory (allowing a generous band for workload scaling).
	total := speeds[3] / speeds[0]
	if total < 20 || total > 300 {
		t.Errorf("EBINSD/Z speedup = %.1f×, expected the paper's order of magnitude (~80×)", total)
	}
}

// TestInjectedBugDetectedAndReplayed checks the Squash+Replay loop: a bug
// detected on a fused event must be localized to the exact instruction by
// reprocessing the buffered unfused events.
func TestInjectedBugDetectedAndReplayed(t *testing.T) {
	count := 0
	hooks := arch.Hooks{AfterExec: func(m *arch.Machine, ex *arch.Exec) {
		if ex.WroteInt && !ex.MMIO && ex.Wdest == 5 {
			count++
			if count == 500 {
				m.State.GPR[5] ^= 0x4
				ex.Wdata ^= 0x4
			}
		}
	}}
	opt, _ := ParseConfig("EBINSD")
	res := run(t, Params{
		DUT: dut.XiangShanDefault(), Platform: platform.Palladium(), Opt: opt,
		Workload: scaled(workload.LinuxBoot(), 60_000), Seed: 3, Hooks: hooks,
	})
	if res.Mismatch == nil {
		t.Fatal("injected bug not detected under EBINSD")
	}
	if res.Replay == nil {
		t.Fatal("no replay report produced")
	}
	if res.Replay.Detailed == nil {
		t.Fatalf("replay did not localize the bug:\n%s", res.Replay)
	}
	if res.Replay.Detailed.Fused {
		t.Error("replay result still fused-level")
	}
	t.Logf("replay localized: %v (replayed %d events)", res.Replay.Detailed, res.Replay.Replayed)

	// The same bug must also be caught by the baseline config.
	count = 0
	optZ, _ := ParseConfig("Z")
	resZ := run(t, Params{
		DUT: dut.XiangShanDefault(), Platform: platform.Palladium(), Opt: optZ,
		Workload: scaled(workload.LinuxBoot(), 60_000), Seed: 3, Hooks: hooks,
	})
	if resZ.Mismatch == nil {
		t.Fatal("injected bug not detected under Z")
	}
}

// TestReplayOverrunIsNotALocalisation: when the replay ring has evicted
// the failing window's checkpoint token, the report says so instead of
// posing as an instruction-level root.
func TestReplayOverrunIsNotALocalisation(t *testing.T) {
	b, ok := bugs.ByID("mepc-misaligned-on-trap")
	if !ok {
		t.Fatal("bug mepc-misaligned-on-trap missing from the library")
	}
	opt, _ := ParseConfig("EBINSD")
	res := run(t, Params{
		DUT: dut.XiangShanDefault(), Platform: platform.Palladium(), Opt: opt,
		Workload: scaled(workload.LinuxBoot(), 40_000), Seed: 3, Hooks: b.Hooks(0),
		ReplayBufCap: 256,
	})
	if res.Mismatch == nil || res.Replay == nil {
		t.Fatalf("want a mismatch with a replay report, got mismatch=%v replay=%v", res.Mismatch, res.Replay)
	}
	if res.Replay.Outcome != replay.Overrun || res.Replay.Detailed != nil {
		t.Fatalf("outcome=%d detailed=%v, want Overrun with no root:\n%s",
			res.Replay.Outcome, res.Replay.Detailed, res.Replay)
	}
	if !strings.Contains(res.Replay.String(), "instruction-level root: replay buffer overrun (") {
		t.Errorf("report does not name the overrun:\n%s", res.Replay)
	}
}

// TestOrderCoupledAblation: order-coupled fusion must show more fusion
// breaks and a lower fusion ratio on an NDE-heavy workload.
func TestOrderCoupledAblation(t *testing.T) {
	base := Params{
		DUT: dut.XiangShanDefault(), Platform: platform.Palladium(),
		Workload: scaled(workload.LinuxBoot(), 25_000), Seed: 7,
	}
	opt, _ := ParseConfig("EBINSD")
	base.Opt = opt
	decoupled := run(t, base)

	base.Opt.CoupleOrder = true
	coupled := run(t, base)

	if coupled.Fusion.Breaks == 0 {
		t.Error("order-coupled fusion recorded no breaks on an NDE-heavy workload")
	}
	if decoupled.Fusion.FusionRatio() <= coupled.Fusion.FusionRatio() {
		t.Errorf("decoupled fusion ratio %.1f not better than coupled %.1f",
			decoupled.Fusion.FusionRatio(), coupled.Fusion.FusionRatio())
	}
	// On this platform both variants are DUT-clock-bound, so the win shows
	// as reduced data volume (the paper's "less data transmitted").
	if decoupled.WireBytes >= coupled.WireBytes {
		t.Errorf("order decoupling did not reduce data volume: %d vs %d bytes",
			decoupled.WireBytes, coupled.WireBytes)
	}
	if decoupled.SpeedHz < coupled.SpeedHz*0.99 {
		t.Errorf("order decoupling slower: %.3f vs %.3f KHz",
			decoupled.SpeedHz/1e3, coupled.SpeedHz/1e3)
	}
	t.Logf("fusion ratio: decoupled %.1f vs coupled %.1f (breaks %d)",
		decoupled.Fusion.FusionRatio(), coupled.Fusion.FusionRatio(), coupled.Fusion.Breaks)
}

// TestFixedOffsetAblation: fixed-offset packing must need more transfers
// than tight packing for the same run.
func TestFixedOffsetAblation(t *testing.T) {
	base := Params{
		DUT: dut.XiangShanDefault(), Platform: platform.Palladium(),
		Workload: scaled(workload.LinuxBoot(), 25_000), Seed: 7,
	}
	opt, _ := ParseConfig("EB")
	base.Opt = opt
	tight := run(t, base)

	base.Opt.FixedOffset = true
	fixed := run(t, base)

	if fixed.Mismatch != nil {
		t.Fatalf("fixed-offset run mismatch: %v", fixed.Mismatch)
	}
	ratio := float64(fixed.Invokes) / float64(tight.Invokes)
	if ratio < 1.3 {
		t.Errorf("fixed-offset invokes only %.2f× tight packing, paper reports ~1.67×", ratio)
	}
	t.Logf("communication ratio fixed/tight = %.2f×", ratio)
}

func TestVerilatorPlatform(t *testing.T) {
	optZ, _ := ParseConfig("Z")
	res := run(t, Params{
		DUT: dut.XiangShanDefault(), Platform: platform.Verilator(16), Opt: optZ,
		Workload: scaled(workload.Microbench(), 10_000), Seed: 5,
	})
	if res.Mismatch != nil {
		t.Fatalf("verilator run mismatch: %v", res.Mismatch)
	}
	if res.SpeedHz < 1e3 || res.SpeedHz > 10e3 {
		t.Errorf("16-thread Verilator on XiangShan = %.1f KHz, want ~4 KHz", res.SpeedHz/1e3)
	}
}
