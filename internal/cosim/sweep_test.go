package cosim

import (
	"testing"

	"repro/internal/dut"
	"repro/internal/platform"
	"repro/internal/workload"
)

// TestSeedSweepNoSpuriousMismatch stress-tests the full pipeline: across
// many workload seeds and profiles, the fully fused configuration must never
// report a divergence on a bug-free DUT. This is the property the paper's
// six months of XiangShan deployment rests on.
func TestSeedSweepNoSpuriousMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep is long")
	}
	opt, _ := ParseConfig("EBINSD")
	profiles := workload.Profiles()
	for seed := int64(100); seed < 112; seed++ {
		prof := profiles[int(seed)%len(profiles)]
		prof.TargetInstrs = 15_000
		res, err := Run(Params{
			DUT: dut.XiangShanDefault(), Platform: platform.FPGA(),
			Opt: opt, Workload: prof, Seed: seed,
		})
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, prof.Name, err)
		}
		if res.Mismatch != nil {
			t.Fatalf("seed %d (%s): spurious mismatch: %v", seed, prof.Name, res.Mismatch)
		}
		if !res.Finished || res.TrapCode != 0 {
			t.Fatalf("seed %d (%s): bad verdict", seed, prof.Name)
		}
	}
}

// TestSeedSweepDualCore repeats the sweep on the dual-core DUT, where
// per-core sequence spaces, fusers, and checkers must stay independent.
func TestSeedSweepDualCore(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep is long")
	}
	opt, _ := ParseConfig("EBINSD")
	for seed := int64(200); seed < 206; seed++ {
		prof := workload.LinuxBoot()
		prof.TargetInstrs = 12_000
		res, err := Run(Params{
			DUT: dut.XiangShanDefaultDual(), Platform: platform.Palladium(),
			Opt: opt, Workload: prof, Seed: seed,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Mismatch != nil {
			t.Fatalf("seed %d: spurious dual-core mismatch: %v", seed, res.Mismatch)
		}
	}
}

// TestDualCoreLongRunClean runs the dual-core DUT far enough that timer
// interrupts land inside generated MMIO sequences: a bug-free DUT must still
// finish clean. The sweep above stops at 12k instructions, short of the
// seeds and lengths where a misplaced device store used to reach the other
// hart's loads in the shared DUT RAM (and never in the private REF images).
// It is one goroutine end to end, so the race detector has nothing to watch.
func TestDualCoreLongRunClean(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("long dual-core runs; sequential, so nothing for -race to check")
	}
	opt, _ := ParseConfig("EBINSD")
	for _, seed := range []int64{3, 5} {
		res, err := Run(Params{
			DUT: dut.XiangShanDefaultDual(), Platform: platform.Palladium(),
			Opt: opt, Workload: scaled(workload.LinuxBoot(), 200_000), Seed: seed,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Mismatch != nil || !res.Finished || res.TrapCode != 0 {
			t.Fatalf("seed %d: bug-free dual-core run: finished=%v trap=%d mismatch=%v",
				seed, res.Finished, res.TrapCode, res.Mismatch)
		}
	}
}
