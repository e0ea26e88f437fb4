package cosim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bugs"
	"repro/internal/dut"
	"repro/internal/platform"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden fixtures")

// renderResult prints everything a sequential run decides or counts: the
// verdict, the Replay report, and the simulated counters. Wall-clock fields
// are left out; everything printed is a deterministic function of Params.
func renderResult(label string, res *Result, err error) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s\n", label)
	if err != nil {
		fmt.Fprintf(&sb, "error: %v\n", err)
		return sb.String()
	}
	fmt.Fprintf(&sb, "finished=%v trap=%d mismatch=%v\n", res.Finished, res.TrapCode, res.Mismatch)
	fmt.Fprintf(&sb, "cycles=%d instrs=%d invokes=%d wire=%d events=%d monitor=%d\n",
		res.Cycles, res.Instrs, res.Invokes, res.WireBytes, res.MonitorEvents, res.MonitorBytes)
	fmt.Fprintf(&sb, "sim=%v speed=%v sw=%v util=%v share=%v\n",
		res.SimSeconds, res.SpeedHz, res.SWSeconds, res.PacketUtilation, res.CommOverheadShare)
	fmt.Fprintf(&sb, "fusion=%+v\n", res.Fusion)
	if res.Coverage != nil {
		fmt.Fprintf(&sb, "coverage=%v\n", *res.Coverage)
	}
	if res.Replay != nil {
		fmt.Fprintf(&sb, "detailed=%v\n%s", res.Replay.Detailed, res.Replay.String())
	}
	return sb.String()
}

// resultGoldenRuns is the sweep the fixture covers: every named config on
// every profile (single and dual core), two ablations, and every library bug
// at its default trigger on its category's profile, Squash also on two cores
// and with a small replay ring.
func resultGoldenRuns() []struct {
	label string
	p     Params
} {
	var runs []struct {
		label string
		p     Params
	}
	add := func(label string, p Params) {
		runs = append(runs, struct {
			label string
			p     Params
		}{label, p})
	}
	cfgs := []string{"Z", "EB", "EBIN", "EBINSD"}
	for _, d := range []dut.Config{dut.XiangShanDefault(), dut.XiangShanDefaultDual()} {
		for _, prof := range workload.Profiles() {
			for _, c := range cfgs {
				opt, _ := ParseConfig(c)
				add(fmt.Sprintf("%s %s %s", d.Name, prof.Name, c), Params{
					DUT: d, Platform: platform.Palladium(), Opt: opt,
					Workload: scaled(prof, 4_000), Seed: 3,
				})
			}
		}
	}
	add("fixed-offset EB", Params{
		DUT: dut.XiangShanDefault(), Platform: platform.Palladium(),
		Opt: Options{Batch: true, FixedOffset: true}, Workload: scaled(workload.LinuxBoot(), 4_000), Seed: 3,
	})
	add("couple-order EBINSD", Params{
		DUT: dut.XiangShanDefault(), Platform: platform.Palladium(),
		Opt: Options{Batch: true, NonBlocking: true, Squash: true, CoupleOrder: true}, Workload: scaled(workload.KVM(), 4_000), Seed: 3,
	})
	for _, b := range bugs.Library() {
		prof := workload.KVM()
		if b.Category == bugs.CatVector {
			prof = workload.RVVTest()
		}
		for _, c := range cfgs {
			opt, _ := ParseConfig(c)
			add(fmt.Sprintf("bug %s %s", b.ID, c), Params{
				DUT: dut.XiangShanDefault(), Platform: platform.Palladium(), Opt: opt,
				Workload: scaled(prof, 30_000), Seed: 21, Hooks: b.Hooks(0),
			})
		}
		// Squash on two cores, and with a replay ring small enough to evict
		// (and overrun) before the mismatch.
		opt, _ := ParseConfig("EBINSD")
		add(fmt.Sprintf("bug %s EBINSD 2C", b.ID), Params{
			DUT: dut.XiangShanDefaultDual(), Platform: platform.Palladium(), Opt: opt,
			Workload: scaled(prof, 30_000), Seed: 21, Hooks: b.Hooks(0),
		})
		add(fmt.Sprintf("bug %s EBINSD ring=3000", b.ID), Params{
			DUT: dut.XiangShanDefault(), Platform: platform.Palladium(), Opt: opt,
			Workload: scaled(prof, 30_000), Seed: 21, Hooks: b.Hooks(0), ReplayBufCap: 3000,
		})
	}
	return runs
}

// TestResultGolden pins the sequential co-simulation's verdicts, Replay
// reports and simulated counters to a fixture captured before the monitor
// emitted encodings directly: the byte-native hot path must decide and count
// exactly what the boxed one did.
func TestResultGolden(t *testing.T) {
	if testing.Short() || raceEnabled {
		// Every run is sequential, so the race detector has nothing to
		// check; the sweep is left to the plain test run.
		t.Skip("full config × profile × bug sweep")
	}
	var got []string
	for _, r := range resultGoldenRuns() {
		res, err := Run(r.p)
		got = append(got, renderResult(r.label, res, err))
	}
	path := filepath.Join("testdata", "result_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(strings.Join(got, "")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden fixture missing (run with -update to create): %v", err)
	}
	want := strings.SplitAfter(string(raw), "== ")
	have := strings.SplitAfter(strings.Join(got, ""), "== ")
	if len(want) != len(have) {
		t.Fatalf("fixture has %d runs, sweep produced %d", len(want), len(have))
	}
	for i := range have {
		if have[i] != want[i] {
			t.Errorf("run %d drifted:\n got %s\nwant %s", i, have[i], want[i])
		}
	}
}
