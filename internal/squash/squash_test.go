package squash

import (
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/dut"
	"repro/internal/event"
	"repro/internal/wire"
	"repro/internal/workload"
)

func commit(seq uint64, pc uint64) event.Record {
	return event.RecordOf(seq, 0, &event.InstrCommit{
		PC: pc, Flags: event.CommitRfWen, Wdest: 1, Wdata: seq,
	})
}

func tokens(n int, start uint64) []uint64 {
	t := make([]uint64, n)
	for i := range t {
		t[i] = start + uint64(i)
	}
	return t
}

func TestFusionWindowAccumulates(t *testing.T) {
	f := NewFuser(Config{MaxFuse: 4, StateFlushAge: 1000}, 0)
	var out []wire.Item
	seq := uint64(0)
	for c := 0; c < 2; c++ {
		var recs []event.Record
		for i := 0; i < 2; i++ {
			seq++
			recs = append(recs, commit(seq, 0x1000+seq*4))
		}
		out = append(out, f.Cycle(recs, tokens(len(recs), seq*10))...)
	}
	// 4 commits at MaxFuse=4: exactly one flush (FusedCommit + Digest).
	var fused []wire.FusedCommit
	for _, it := range out {
		if it.IsFused() {
			fc, err := wire.DecodeFused(it)
			if err != nil {
				t.Fatal(err)
			}
			fused = append(fused, fc)
		}
	}
	if len(fused) != 1 {
		t.Fatalf("fused items = %d, want 1", len(fused))
	}
	fc := fused[0]
	if fc.Count != 4 || fc.LastSeq != 4 || fc.LastPC != 0x1000+4*4 {
		t.Errorf("fused summary = %+v", fc)
	}
	wantDig := uint64(0x1004 ^ 0x1008 ^ 0x100C ^ 0x1010)
	if fc.PCDigest != wantDig {
		t.Errorf("pc digest = %#x, want %#x", fc.PCDigest, wantDig)
	}
	if fc.WDigest != 1^2^3^4 {
		t.Errorf("wdata digest = %#x", fc.WDigest)
	}
	if f.Stats.FusionRatio() != 4 {
		t.Errorf("fusion ratio = %v", f.Stats.FusionRatio())
	}
}

func TestNDEsGoAheadWithoutBreakingFusion(t *testing.T) {
	f := NewFuser(Config{MaxFuse: 100, StateFlushAge: 1000}, 0)
	recs := []event.Record{
		commit(1, 0x100),
		event.RecordOf(1, 0, &event.Interrupt{Cause: 7, PC: 0x104}),
		commit(2, 0x200),
	}
	out := f.Cycle(recs, tokens(len(recs), 0))
	ndes := 0
	for _, it := range out {
		if it.IsNDE() {
			ndes++
			tag, _, err := wire.SplitNDE(it)
			if err != nil {
				t.Fatal(err)
			}
			if k, _ := it.Kind(); k != event.KindInterrupt || tag != 1 {
				t.Errorf("NDE = %v tag %d", k, tag)
			}
		}
		if it.IsFused() {
			t.Error("decoupled fusion flushed on an NDE")
		}
	}
	if ndes != 1 {
		t.Errorf("NDEs ahead = %d, want 1", ndes)
	}
	if f.Stats.Breaks != 0 {
		t.Errorf("breaks = %d in decoupled mode", f.Stats.Breaks)
	}

	// Order-coupled mode must break instead.
	fc := NewFuser(Config{MaxFuse: 100, CoupleOrder: true, StateFlushAge: 1000}, 0)
	out = fc.Cycle(recs, tokens(len(recs), 0))
	sawFlush := false
	for _, it := range out {
		if it.IsFused() {
			sawFlush = true
		}
	}
	if !sawFlush || fc.Stats.Breaks != 1 {
		t.Errorf("coupled mode: flush=%v breaks=%d", sawFlush, fc.Stats.Breaks)
	}
}

func TestSkippedCommitGetsPreApplyTag(t *testing.T) {
	f := NewFuser(DefaultConfig(), 0)
	mmio := event.RecordOf(5, 0, &event.InstrCommit{
		PC: 0x500, Flags: event.CommitSkip | event.CommitRfWen, Wdest: 3, Wdata: 9,
	})
	out := f.Cycle([]event.Record{mmio}, tokens(1, 0))
	if len(out) != 1 || !out[0].IsNDE() {
		t.Fatalf("skip commit items = %v", out)
	}
	tag, _, err := wire.SplitNDE(out[0])
	if err != nil {
		t.Fatal(err)
	}
	if tag != 4 {
		t.Errorf("skip commit tag = %d, want seq-1 = 4", tag)
	}
}

func TestStateDifferencingChain(t *testing.T) {
	f := NewFuser(Config{MaxFuse: 1000, StateFlushAge: 1}, 0)
	s1 := &event.CSRState{Mstatus: 0x8, Mcycle: 1}
	s2 := &event.CSRState{Mstatus: 0x8, Mcycle: 2}

	out1 := f.Cycle([]event.Record{event.RecordOf(1, 0, s1)}, tokens(1, 0))
	if len(out1) != 1 || !out1[0].IsNDE() {
		t.Fatalf("first snapshot should be a whole tagged event, got %v", out1)
	}
	out2 := f.Cycle([]event.Record{event.RecordOf(2, 0, s2)}, tokens(1, 1))
	if len(out2) != 1 || out2[0].Type < wire.TypeDiffBase {
		t.Fatalf("second snapshot should be a diff, got %v", out2)
	}
	tag, enc, err := wire.ApplyDiff(nil, out2[0], event.EncodeValue(s1))
	if err != nil {
		t.Fatal(err)
	}
	ev, _ := event.Decode(event.KindCSRState, enc)
	if tag != 2 || !reflect.DeepEqual(ev, s2) {
		t.Errorf("diff completion: tag=%d", tag)
	}
	if len(out2[0].Payload) >= event.SizeOf(event.KindCSRState) {
		t.Error("diff did not shrink the snapshot")
	}
	if f.Stats.Diffs != 1 || f.Stats.RawState != 1 {
		t.Errorf("stats = %+v", f.Stats)
	}
}

func TestFlushEmitsOpenWindow(t *testing.T) {
	f := NewFuser(DefaultConfig(), 0)
	f.Cycle([]event.Record{commit(1, 0x100)}, tokens(1, 0))
	out := f.Flush()
	found := false
	for _, it := range out {
		if it.IsFused() {
			fc, _ := wire.DecodeFused(it)
			if fc.Count == 1 && fc.LastPC == 0x100 {
				found = true
			}
		}
	}
	if !found {
		t.Error("Flush did not emit the open window")
	}
}

func TestStartTokenTracksWindow(t *testing.T) {
	f := NewFuser(Config{MaxFuse: 2, StateFlushAge: 1000}, 0)
	out := f.Cycle([]event.Record{commit(1, 4), commit(2, 8)}, []uint64{70, 71})
	for _, it := range out {
		if it.IsFused() {
			fc, _ := wire.DecodeFused(it)
			if fc.StartToken != 70 {
				t.Errorf("start token = %d, want 70", fc.StartToken)
			}
		}
	}
	// Next window starts with the next record's token.
	out = f.Cycle([]event.Record{commit(3, 12), commit(4, 16)}, []uint64{90, 91})
	for _, it := range out {
		if it.IsFused() {
			fc, _ := wire.DecodeFused(it)
			if fc.StartToken != 90 {
				t.Errorf("second window start token = %d, want 90", fc.StartToken)
			}
		}
	}
}

// TestAllocBudgetFuserCycle: once its per-kind snapshot buffers and output
// arena have grown, fusing a monitor cycle allocates nothing.
func TestAllocBudgetFuserCycle(t *testing.T) {
	cfg := dut.XiangShanDefault()
	p := workload.LinuxBoot()
	p.TargetInstrs = 20_000
	prog := workload.Generate(p, 1, 1)
	d := dut.New(cfg, prog.Image, prog.Entries, arch.Hooks{})
	var cycles [][]event.Record
	for done := false; !done && len(cycles) < 6_000; {
		var recs []event.Record
		recs, done = d.StepCycle()
		cp := make([]event.Record, len(recs))
		for i, r := range recs {
			cp[i] = r.Clone()
		}
		cycles = append(cycles, cp)
	}
	f := NewFuser(DefaultConfig(), 0)
	toks := make([]uint64, 1024)
	i := 0
	step := func() {
		recs := cycles[i%len(cycles)]
		i++
		f.Cycle(recs, toks[:len(recs)])
	}
	for i < len(cycles) {
		step()
	}
	if n := testing.AllocsPerRun(len(cycles), step); n != 0 {
		t.Errorf("Fuser.Cycle allocates %.3f/cycle once warm, budget 0", n)
	}
}
