package trace_test

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/checker"
	"repro/internal/dut"
	"repro/internal/event"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]event.Record{
		{event.RecordOf(1, 0, &event.InstrCommit{PC: 0x80000000, Wdata: 7})},
		{
			event.RecordOf(2, 1, &event.Load{PAddr: 0x1000, Data: 42}),
			event.RecordOf(2, 1, &event.ArchIntRegState{GPR: [32]uint64{5: 99}}),
		},
	}
	for i, recs := range want {
		if err := w.WriteCycle(uint64(i+10), recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, wantRecs := range want {
		cycle, recs, err := r.ReadCycle()
		if err != nil {
			t.Fatal(err)
		}
		if cycle != uint64(i+10) || len(recs) != len(wantRecs) {
			t.Fatalf("cycle %d: got cycle=%d n=%d", i, cycle, len(recs))
		}
		for j := range recs {
			if recs[j].Seq != wantRecs[j].Seq || recs[j].Core != wantRecs[j].Core ||
				!reflect.DeepEqual(recs[j], wantRecs[j]) {
				t.Fatalf("cycle %d record %d mismatch", i, j)
			}
		}
	}
	if _, _, err := r.ReadCycle(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestRejectsGarbage(t *testing.T) {
	if _, err := trace.NewReader(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := trace.NewReader(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
}

// TestTraceDrivesChecker is the iterative-debugging workflow (paper §5):
// dump a DUT run once, then re-drive the verification logic from the trace
// without the DUT.
func TestTraceDrivesChecker(t *testing.T) {
	prof := workload.Microbench()
	prof.TargetInstrs = 8_000
	prog := workload.Generate(prof, 1, 31)
	d := dut.New(dut.XiangShanDefault(), prog.Image, prog.Entries, arch.Hooks{})

	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for {
		recs, done := d.StepCycle()
		if err := w.WriteCycle(d.CycleCount, recs); err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay the trace into a fresh checker: no DUT needed.
	r, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	chk := checker.New(prog.Image, prog.Entries, 1)
	for {
		_, recs, err := r.ReadCycle()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if m := chk.Process(rec); m != nil {
				t.Fatalf("trace-driven checking mismatched: %v", m)
			}
		}
	}
	if fin, code := chk.Finished(); !fin || code != 0 {
		t.Errorf("trace replay did not finish cleanly: %v %d", fin, code)
	}
	var monitored uint64
	for _, n := range d.EventCount {
		monitored += n
	}
	if r.Events != monitored {
		t.Errorf("trace carried %d events, monitor emitted %d", r.Events, monitored)
	}
}
