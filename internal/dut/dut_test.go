package dut_test

import (
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/dut"
	"repro/internal/event"
	"repro/internal/workload"
)

func runAll(t *testing.T, d *dut.DUT, maxCycles int) [][]event.Record {
	t.Helper()
	var cycles [][]event.Record
	for i := 0; i < maxCycles; i++ {
		recs, done := d.StepCycle()
		if len(recs) > 0 {
			cp := append([]event.Record(nil), recs...)
			cycles = append(cycles, cp)
		}
		if done {
			return cycles
		}
	}
	t.Fatalf("%s did not finish in %d cycles", d.Cfg.Name, maxCycles)
	return nil
}

func smallProg(cores int) *workload.Program {
	p := workload.Microbench()
	p.TargetInstrs = 5_000
	return workload.Generate(p, cores, 17)
}

func TestDUTIsDeterministic(t *testing.T) {
	cfg := dut.XiangShanDefault()
	prog := smallProg(1)
	a := runAll(t, dut.New(cfg, prog.Image, prog.Entries, arch.Hooks{}), 1_000_000)
	b := runAll(t, dut.New(cfg, prog.Image, prog.Entries, arch.Hooks{}), 1_000_000)
	if len(a) != len(b) {
		t.Fatalf("cycle counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("cycle %d: %d vs %d records", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j].Seq != b[i][j].Seq || !reflect.DeepEqual(a[i][j].Ev, b[i][j].Ev) {
				t.Fatalf("cycle %d record %d differs", i, j)
			}
		}
	}
}

func TestDUTHonoursKindFilter(t *testing.T) {
	cfg := dut.NutShell()
	prog := smallProg(1)
	d := dut.New(cfg, prog.Image, prog.Entries, arch.Hooks{})
	runAll(t, d, 1_000_000)
	enabled := cfg.EnabledKinds()
	for k := event.Kind(0); k < event.NumKinds; k++ {
		if !enabled[k] && d.EventCount[k] != 0 {
			t.Errorf("disabled kind %v emitted %d times", k, d.EventCount[k])
		}
	}
	if d.EventCount[event.KindInstrCommit] == 0 {
		t.Error("no commits monitored")
	}
}

func TestDUTSeqMonotonePerCore(t *testing.T) {
	cfg := dut.XiangShanDefaultDual()
	prog := smallProg(2)
	d := dut.New(cfg, prog.Image, prog.Entries, arch.Hooks{})
	last := map[uint8]uint64{}
	for i := 0; i < 1_000_000; i++ {
		recs, done := d.StepCycle()
		for _, rec := range recs {
			if rec.Seq < last[rec.Core] {
				t.Fatalf("core %d seq went backwards: %d after %d", rec.Core, rec.Seq, last[rec.Core])
			}
			last[rec.Core] = rec.Seq
		}
		if done {
			break
		}
	}
	if last[0] == 0 || last[1] == 0 {
		t.Errorf("cores did not both commit: %v", last)
	}
}

func TestDUTDoesNotMutateImage(t *testing.T) {
	prog := smallProg(1)
	before := prog.Image.Read(prog.Entries[0], 4)
	d := dut.New(dut.NutShell(), prog.Image, prog.Entries, arch.Hooks{})
	runAll(t, d, 1_000_000)
	if prog.Image.Read(prog.Entries[0], 4) != before {
		t.Error("DUT wrote through to the shared image")
	}
}

func TestConfigsMatchTable4(t *testing.T) {
	cfgs := dut.Configs()
	if len(cfgs) != 4 {
		t.Fatalf("want the paper's 4 DUTs, got %d", len(cfgs))
	}
	wantGates := []float64{0.6, 39.4, 57.6, 111.8}
	wantKinds := []int{6, 32, 32, 32}
	for i, c := range cfgs {
		if c.GatesM != wantGates[i] {
			t.Errorf("%s gates = %v, want %v", c.Name, c.GatesM, wantGates[i])
		}
		if c.NumEventKinds() != wantKinds[i] {
			t.Errorf("%s kinds = %d, want %d", c.Name, c.NumEventKinds(), wantKinds[i])
		}
	}
}

func TestUARTCapturesWorkloadOutput(t *testing.T) {
	p := workload.LinuxBoot() // MMIO-heavy profile prints to the UART
	p.TargetInstrs = 20_000
	prog := workload.Generate(p, 1, 23)
	d := dut.New(dut.XiangShanDefault(), prog.Image, prog.Entries, arch.Hooks{})
	runAll(t, d, 3_000_000)
	if len(d.UARTOutput()) == 0 {
		t.Error("UART captured nothing on an MMIO-heavy workload")
	}
}
