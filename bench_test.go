package difftest

// The benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§6), plus ablation benches for the design decisions DESIGN.md
// calls out and micro-benchmarks of the communication pipeline stages.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Each benchmark regenerates its experiment's rows (visible with -v via
// b.Log); the commands under cmd/ print the same reports standalone.

import (
	"bytes"
	"testing"

	"repro/internal/batch"
	"repro/internal/cosim"
	"repro/internal/dut"
	"repro/internal/event"
	"repro/internal/experiments"
	"repro/internal/platform"
	"repro/internal/wire"
	"repro/internal/workload"
)

// benchInstrs keeps per-iteration runs short; speeds and shares are
// throughput ratios, so they are insensitive to run length.
const benchInstrs = 15_000

func logOnce(b *testing.B, printed *bool, r *experiments.Report) {
	if !*printed {
		b.Log("\n" + r.String())
		*printed = true
	}
}

// --- Tables ---

func BenchmarkTable1EventTaxonomy(b *testing.B) {
	printed := false
	for i := 0; i < b.N; i++ {
		logOnce(b, &printed, experiments.Table1())
	}
}

func BenchmarkTable2Platforms(b *testing.B) {
	printed := false
	for i := 0; i < b.N; i++ {
		logOnce(b, &printed, experiments.Table2())
	}
}

func BenchmarkTable4DUTScales(b *testing.B) {
	printed := false
	for i := 0; i < b.N; i++ {
		logOnce(b, &printed, experiments.Table4(benchInstrs))
	}
}

func BenchmarkTable5Breakdown(b *testing.B) {
	printed := false
	for i := 0; i < b.N; i++ {
		logOnce(b, &printed, experiments.Table5(benchInstrs))
	}
}

func BenchmarkTable6BugInventory(b *testing.B) {
	printed := false
	for i := 0; i < b.N; i++ {
		logOnce(b, &printed, experiments.Table6())
	}
}

func BenchmarkTable7PriorWork(b *testing.B) {
	printed := false
	for i := 0; i < b.N; i++ {
		logOnce(b, &printed, experiments.Table7(benchInstrs))
	}
}

// --- Figures ---

func BenchmarkFigure2OverheadBreakdown(b *testing.B) {
	printed := false
	for i := 0; i < b.N; i++ {
		logOnce(b, &printed, experiments.Figure2(benchInstrs))
	}
}

func BenchmarkFigure4EventCensus(b *testing.B) {
	printed := false
	for i := 0; i < b.N; i++ {
		logOnce(b, &printed, experiments.Figure4(benchInstrs))
	}
}

func BenchmarkFigure13Performance(b *testing.B) {
	printed := false
	for i := 0; i < b.N; i++ {
		logOnce(b, &printed, experiments.Figure13(benchInstrs))
	}
}

func BenchmarkFigure14BugDetection(b *testing.B) {
	printed := false
	for i := 0; i < b.N; i++ {
		logOnce(b, &printed, experiments.Figure14(60_000))
	}
}

func BenchmarkFigure15Resources(b *testing.B) {
	printed := false
	for i := 0; i < b.N; i++ {
		logOnce(b, &printed, experiments.Figure15())
	}
}

// --- Ablations (DESIGN.md key decisions) ---

func BenchmarkAblationPacketSize(b *testing.B) {
	printed := false
	for i := 0; i < b.N; i++ {
		logOnce(b, &printed, experiments.AblationPacketSize(benchInstrs))
	}
}

func BenchmarkAblationFusionWindow(b *testing.B) {
	printed := false
	for i := 0; i < b.N; i++ {
		logOnce(b, &printed, experiments.AblationFusionWindow(benchInstrs))
	}
}

func BenchmarkSquashVsCoupled(b *testing.B) {
	printed := false
	for i := 0; i < b.N; i++ {
		logOnce(b, &printed, experiments.AblationOrderCoupling(benchInstrs))
	}
}

func BenchmarkReplayVsSnapshot(b *testing.B) {
	printed := false
	for i := 0; i < b.N; i++ {
		logOnce(b, &printed, experiments.AblationReplayVsSnapshot(20_000))
	}
}

func BenchmarkBatchVsFixedOffset(b *testing.B) {
	wl := workload.LinuxBoot()
	wl.TargetInstrs = benchInstrs
	optEB, _ := cosim.ParseConfig("EB")
	fixed := optEB
	fixed.FixedOffset = true
	printed := false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tight, err := cosim.Run(cosim.Params{
			DUT: dut.XiangShanDefault(), Platform: platform.Palladium(),
			Opt: optEB, Workload: wl, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		fx, err := cosim.Run(cosim.Params{
			DUT: dut.XiangShanDefault(), Platform: platform.Palladium(),
			Opt: fixed, Workload: wl, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !printed {
			b.Logf("tight packing: %d transfers; fixed-offset: %d transfers (%.2fx)",
				tight.Invokes, fx.Invokes, float64(fx.Invokes)/float64(tight.Invokes))
			printed = true
		}
	}
}

// --- Per-configuration co-simulation throughput ---

func benchConfig(b *testing.B, cfg string) {
	wl := workload.LinuxBoot()
	wl.TargetInstrs = benchInstrs
	opt, err := cosim.ParseConfig(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var cycles, instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cosim.Run(cosim.Params{
			DUT: dut.XiangShanDefault(), Platform: platform.Palladium(),
			Opt: opt, Workload: wl, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Mismatch != nil {
			b.Fatalf("mismatch: %v", res.Mismatch)
		}
		cycles = res.Cycles
		instrs = res.Instrs
	}
	b.ReportMetric(float64(cycles), "DUTcycles/op")
	b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}

func BenchmarkCosimBaselineZ(b *testing.B)    { benchConfig(b, "Z") }
func BenchmarkCosimBatchEB(b *testing.B)      { benchConfig(b, "EB") }
func BenchmarkCosimNonBlockEBIN(b *testing.B) { benchConfig(b, "EBIN") }
func BenchmarkCosimSquashEBINSD(b *testing.B) { benchConfig(b, "EBINSD") }

// --- Pipeline stage micro-benchmarks ---

func monitorCycleItems(n int) [][]wire.Item {
	prog := workload.Generate(workload.LinuxBoot(), 1, 7)
	d := dut.New(dut.XiangShanDefault(), prog.Image, prog.Entries, Hooks{})
	var out [][]wire.Item
	for len(out) < n {
		recs, done := d.StepCycle()
		if len(recs) > 0 {
			// The items alias this cycle's monitor arena: keep copies.
			items := wire.FromRecords(recs)
			for i := range items {
				items[i].Payload = bytes.Clone(items[i].Payload)
			}
			out = append(out, items)
		}
		if done {
			break
		}
	}
	return out
}

func BenchmarkBatchPackerThroughput(b *testing.B) {
	cycles := monitorCycleItems(256)
	p := batch.NewPacker(4096)
	var bytes int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pkt := range p.AddCycle(cycles[i%len(cycles)]) {
			bytes += int64(len(pkt.Buf))
			pkt.Release()
		}
	}
	b.SetBytes(bytes / int64(b.N+1))
}

func BenchmarkBatchUnpackerThroughput(b *testing.B) {
	cycles := monitorCycleItems(256)
	p := batch.NewPacker(4096)
	var pkts []batch.Packet
	for _, c := range cycles {
		pkts = append(pkts, p.AddCycle(c)...)
	}
	pkts = append(pkts, p.Flush()...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var u batch.Unpacker
		for _, pkt := range pkts {
			if _, err := u.AddPacket(pkt.Buf); err != nil {
				b.Fatal(err)
			}
		}
		u.Flush()
	}
}

func BenchmarkEventEncodeAll(b *testing.B) {
	evs := make([]event.Event, 0, event.NumKinds)
	for k := event.Kind(0); k < event.NumKinds; k++ {
		evs = append(evs, event.InfoOf(k).New())
	}
	buf := make([]byte, 0, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = event.Encode(buf[:0], evs[i%len(evs)])
	}
}

func BenchmarkMonitorCycle(b *testing.B) {
	prog := workload.Generate(workload.LinuxBoot(), 1, 7)
	d := dut.New(dut.XiangShanDefault(), prog.Image, prog.Entries, Hooks{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, done := d.StepCycle(); done {
			b.StopTimer()
			d = dut.New(dut.XiangShanDefault(), prog.Image, prog.Entries, Hooks{})
			b.StartTimer()
		}
	}
}

func BenchmarkDetectionLatency(b *testing.B) {
	printed := false
	for i := 0; i < b.N; i++ {
		logOnce(b, &printed, experiments.DetectionLatency(120_000))
	}
}
