package workload

import (
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/dut"
	"repro/internal/isa"
)

// TestDualCoreStoresStayInOwnDataRegion is the per-core layout property:
// on a dual-core DUT, whose harts share one RAM, every non-MMIO store a hart
// makes lands in that hart's own data region. A store anywhere else could
// reach the other hart's loads in the DUT but never in the REFs, which each
// execute a private copy of the image — a false mismatch on a bug-free DUT.
// The property has to hold with timer interrupts landing anywhere, including
// between a generated sequence's address set-up and its access, so it is
// checked over full-length runs of three profiles and eight seeds.
func TestDualCoreStoresStayInOwnDataRegion(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full-length dual-core runs; one goroutine, so nothing for -race to check")
	}
	for _, prof := range []Profile{LinuxBoot(), KVM(), RVVTest()} {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", prof.Name, seed), func(t *testing.T) {
				prof.TargetInstrs = 200_000
				prog := Generate(prof, 2, seed)
				var stray []string
				hooks := arch.Hooks{AfterExec: func(m *arch.Machine, ex *arch.Exec) {
					if !ex.Mem || ex.IsLoad || ex.MMIO {
						return
					}
					hart := m.State.CSRVal(isa.CSRMhartid)
					lo := dataRegionBase + hart*coreDataStride
					if ex.MemAddr < lo || ex.MemAddr+uint64(ex.MemSize) > lo+coreDataStride {
						stray = append(stray, fmt.Sprintf("hart %d pc %#x stores %d B at %#x",
							hart, ex.PC, ex.MemSize, ex.MemAddr))
					}
				}}
				cfg := dut.XiangShanDefaultDual()
				d := dut.New(cfg, prog.Image, prog.Entries, hooks)
				for done := false; !done; {
					if d.CycleCount > 10_000_000 {
						t.Fatal("dual-core run did not finish")
					}
					_, done = d.StepCycle()
				}
				if len(stray) > 0 {
					t.Errorf("%d store(s) outside the hart's data region, first: %s", len(stray), stray[0])
				}
			})
		}
	}
}
