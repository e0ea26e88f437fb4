package main

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestPercentileAndSampleCount(t *testing.T) {
	samples := make([]float64, 40)
	for i := range samples {
		samples[i] = float64(40 - i) // 40..1, unsorted on purpose
	}
	s := summarize(samples)
	if s.N != 40 || s.P50 != 20 || s.P75 != 30 || s.Beyond != 10 {
		t.Errorf("summarize(1..40) = %+v, want n=40 p50=20 p75=30 beyond=10", s)
	}
	if samples[0] != 40 {
		t.Error("summarize reordered its input")
	}
	if v, beyond := percentile([]float64{7}, 0.75); v != 7 || beyond != 0 {
		t.Errorf("single sample: p75=%v beyond=%d", v, beyond)
	}
	if v, _ := percentile(nil, 0.5); !math.IsNaN(v) {
		t.Errorf("no samples: got %v, want NaN", v)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3,0) = %v, want 0", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	rec := &recorder{}
	root := rec.add(span{Name: "op", Parent: -1, StartNs: 100})
	rec.add(span{Name: "dut.step", Parent: root, StartNs: 110, EndNs: 900, BusyNs: 300})
	rec.add(span{Name: "batch.pack", Parent: root, StartNs: 120, EndNs: 950, BusyNs: 200})
	other := rec.add(span{Name: "op", Parent: -1, StartNs: 1000})
	rec.add(span{Name: "dut.step", Parent: other, StartNs: 1000, EndNs: 1040, BusyNs: 40})
	rec.finish(root, 1000)
	rec.finish(other, 1050)

	self := selfTimes(rec.spans)
	want := map[int]int64{0: 900 - 300 - 200, 1: 300, 2: 200, 3: 50 - 40, 4: 40}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

func TestPackageOfSyntheticStack(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "runtime.growslice", "repro/internal/batch.(*Unpacker).AddPacket", "repro/internal/cosim.(*swConsumer).decode"}, "batch"},
		{[]string{"runtime.newobject", "repro/internal/transport/shmring.(*Conn).ReadFrame", "repro/internal/transport.(*Server).runSession"}, "transport"},
		{[]string{"runtime.makeslice", "repro/internal/pipeline.Run[...]", "repro/internal/cosim.Run"}, "pipeline"},
		{[]string{"runtime.malg", "runtime.newproc1"}, "other"},
		{[]string{"runtime.newobject", "repro/benchmark.main"}, "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := packageOf(c.stack); got != c.want {
			t.Errorf("packageOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	in := result{
		Correct: true, Attempted: 40, Failed: 0,
		Metrics: map[string]metric{
			"instrs_per_s": {339797.123456789, "instrs/s"},
			"setup_s":      {0.524846, "s"},
		},
	}
	var buf bytes.Buffer
	if err := in.emit(&buf, "linux_ebinsd_exec"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"instrs_per_s", "instrs/s", "failed_frac"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("printed metrics lack %q:\n%s", want, buf.String())
		}
	}
	out, err := parseResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip: got %+v, want %+v", out, in)
	}
	if _, err := parseResult(strings.NewReader("no result here\n")); err == nil {
		t.Error("parseResult accepted output without a result object")
	}
}

func TestCompareAA(t *testing.T) {
	s := spec{EndToEnd: []specMetric{
		{Name: "instrs_per_s", Bound: 0.10},
		{Name: "wire_bytes_per_instr", Bound: 0.02},
	}}
	run := func(ips, wire float64) map[string]result {
		return map[string]result{"w": {Metrics: map[string]metric{
			"instrs_per_s": {ips, "instrs/s"}, "wire_bytes_per_instr": {wire, "B"},
		}}}
	}
	var out bytes.Buffer
	if err := compareAA(&out, s, []string{"w"}, run(100, 20), run(108, 20)); err != nil {
		t.Errorf("8%% apart under a 10%% bound: %v", err)
	}
	if err := compareAA(&out, s, []string{"w"}, run(100, 20), run(115, 20)); err == nil {
		t.Error("15% apart under a 10% bound passed")
	}
	// A simulated metric has to match exactly, whatever its file bound.
	if err := compareAA(&out, s, []string{"w"}, run(100, 20), run(100, 20.001)); err == nil {
		t.Error("simulated metric differing in the fifth digit passed")
	}
}

// TestLedgerMatchesCosimRun drives a 5k-instruction op of every mirrored
// configuration, and one injected bug, through the ledger; ledgerPass fails
// unless the ledger reaches cosim.Run's verdict and simulated counters.
func TestLedgerMatchesCosimRun(t *testing.T) {
	for _, c := range []struct {
		config   string
		bugSeeds int
	}{{"EB", 0}, {"EBIN", 0}, {"EBINSD", 0}, {"EBINSD", 1}} {
		def := workloadDef{name: "t", config: c.config, instrs: 5_000, cycle: 1, clients: 1, bugSeeds: c.bugSeeds}
		ops, err := buildOps(def, defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		rec := &recorder{}
		n, err := ledgerPass(ops, 1, rec)
		if err != nil {
			t.Fatalf("%s bugSeeds=%d: %v", c.config, c.bugSeeds, err)
		}
		if n.instrs == 0 || n.led.total[layDUT].Calls == 0 || len(rec.spans) < 2 {
			t.Errorf("%s: ledger recorded nothing: %d instrs, %d spans", c.config, n.instrs, len(rec.spans))
		}
		if c.bugSeeds > 0 && len(n.replayMs) != 1 {
			t.Errorf("injected bug %s did not end in Replay", ops[0].label)
		}
		var layerBusy int64
		for _, l := range n.led.total {
			layerBusy += l.busy
		}
		if root := rec.spans[0]; layerBusy > root.BusyNs {
			t.Errorf("%s: layers were busy %d ns inside a %d ns op", c.config, layerBusy, root.BusyNs)
		}
	}
}

// TestQuickRunEveryWorkload takes each workload's real path end to end —
// oracles, servers, router, closed loop, verdict checks, shutdown checks,
// then the traced pass — at -quick size, and holds what the runs emit
// against the metric lists of BENCHMARK.json.
func TestQuickRunEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and runs some fifty co-simulations")
	}
	s, err := readSpec("../" + specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(workloads) {
		t.Errorf("%s names %d workloads, the benchmark runs %d", specPath, len(s.Workloads), len(workloads))
	}
	for i, def := range workloads {
		if i < len(s.Workloads) && s.Workloads[i].Name != def.name {
			t.Errorf("%s workload %d is %q, the benchmark's is %q", specPath, i, s.Workloads[i].Name, def.name)
		}
		o := options{seed: defaultSeed, quick: true, tmpRoot: t.TempDir(), outDir: t.TempDir()}
		for trace, listed := range [][]specMetric{s.EndToEnd, s.PerLayer} {
			o.trace = trace
			res, err := runWorkload(def, o)
			if err != nil {
				t.Fatalf("%s trace %d: %v", def.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 3 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", def.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(listed) {
				t.Errorf("%s trace %d: %d metrics emitted, %d listed", def.name, trace, len(res.Metrics), len(listed))
			}
			for _, want := range listed {
				got, ok := res.Metrics[want.Name]
				switch {
				case !ok:
					t.Errorf("%s: listed metric %s not emitted", def.name, want.Name)
				case got.Unit != want.Unit:
					t.Errorf("%s: %s emitted in %q, listed in %q", def.name, want.Name, got.Unit, want.Unit)
				case trace == 0 && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", def.name, want.Name, got.Value)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: %s = %v", def.name, want.Name, got.Value)
				}
			}
		}
	}
}
