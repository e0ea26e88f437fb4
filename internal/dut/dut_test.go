package dut_test

import (
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/bugs"
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
			// The records alias the monitor's per-cycle arena: keep copies.
			cp := make([]event.Record, len(recs))
			for i, r := range recs {
				cp[i] = r.Clone()
			}
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
			if !reflect.DeepEqual(a[i][j], b[i][j]) {
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

// TestRecordEncodingsAreClamped: every record views exactly its kind's
// wire size of the shared per-cycle arena, with its capacity clamped, so an
// append to one record's bytes cannot overwrite the next record's.
func TestRecordEncodingsAreClamped(t *testing.T) {
	prog := smallProg(1)
	d := dut.New(dut.XiangShanDefault(), prog.Image, prog.Entries, arch.Hooks{})
	for i := 0; i < 200; i++ {
		recs, _ := d.StepCycle()
		for _, r := range recs {
			if len(r.Data) != event.SizeOf(r.Kind) || cap(r.Data) != len(r.Data) {
				t.Fatalf("cycle %d: %v record is %dB (cap %d), want %dB", i, r.Kind, len(r.Data), cap(r.Data), event.SizeOf(r.Kind))
			}
		}
	}
}

// TestAllocBudgetStepCycle: at steady state the monitor allocates nothing
// per cycle — encodings go into the reused per-cycle arena — both on a bare
// design and with bug-injection hooks installed.
func TestAllocBudgetStepCycle(t *testing.T) {
	for _, hooked := range []bool{false, true} {
		p := workload.KVM()
		p.TargetInstrs = 200_000
		prog := workload.Generate(p, 1, 5)
		var hooks arch.Hooks
		if hooked {
			// Every library bug's hooks, armed too late to fire here.
			var all []arch.Hooks
			for _, b := range bugs.Library() {
				all = append(all, b.Hooks(1<<30))
			}
			hooks.AfterExec = func(m *arch.Machine, ex *arch.Exec) {
				for _, h := range all {
					if h.AfterExec != nil {
						h.AfterExec(m, ex)
					}
				}
			}
		}
		d := dut.New(dut.XiangShanDefault(), prog.Image, prog.Entries, hooks)
		for i := 0; i < 20_000; i++ { // warm-up: arena growth, touched pages
			d.StepCycle()
		}
		allocs := testing.AllocsPerRun(5_000, func() {
			if _, done := d.StepCycle(); done {
				t.Fatal("workload ended inside the measured window")
			}
		})
		if allocs != 0 {
			t.Errorf("StepCycle (hooks %v) allocates %.3f/cycle, budget 0", hooked, allocs)
		}
	}
}
