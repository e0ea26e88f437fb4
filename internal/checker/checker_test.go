package checker_test

import (
	"strings"
	"testing"

	"repro/internal/checker"
	"repro/internal/event"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/snapshot"
)

// harness builds a checker over a tiny program:
//
//	addi x1, x0, 5
//	sd   x1, 0(x2)     (x2 preset to a data address)
//	ld   x3, 0(x2)
func harness(t *testing.T) *checker.Checker {
	t.Helper()
	img := mem.New()
	prog := []isa.Inst{
		{Op: isa.OpADDI, Rd: 1, Rs1: 0, Imm: 5},
		{Op: isa.OpSD, Rs1: 2, Rs2: 1, Imm: 0},
		{Op: isa.OpLD, Rd: 3, Rs1: 2, Imm: 0},
	}
	addr := mem.RAMBase
	for _, in := range prog {
		img.Write(addr, 4, uint64(isa.MustEncode(in)))
		addr += 4
	}
	chk := checker.New(img, []uint64{mem.RAMBase}, 1)
	chk.Cores[0].Ref.M.State.GPR[2] = mem.RAMBase + 0x1000
	return chk
}

func commitRec(seq uint64, pc uint64, wdest uint8, wdata uint64) event.Record {
	return event.RecordOf(seq, 0, &event.InstrCommit{
		PC: pc, Instr: instrAt(pc), Flags: event.CommitRfWen, Wdest: wdest, Wdata: wdata,
	})
}

// instrAt recomputes the encodings used by harness (keeps records honest).
func instrAt(pc uint64) uint32 {
	prog := []isa.Inst{
		{Op: isa.OpADDI, Rd: 1, Rs1: 0, Imm: 5},
		{Op: isa.OpSD, Rs1: 2, Rs2: 1, Imm: 0},
		{Op: isa.OpLD, Rd: 3, Rs1: 2, Imm: 0},
	}
	return isa.MustEncode(prog[(pc-mem.RAMBase)/4])
}

func TestCommitMatches(t *testing.T) {
	chk := harness(t)
	if m := chk.Process(commitRec(1, mem.RAMBase, 1, 5)); m != nil {
		t.Fatalf("clean commit flagged: %v", m)
	}
}

func TestCommitWrongWdata(t *testing.T) {
	chk := harness(t)
	m := chk.Process(commitRec(1, mem.RAMBase, 1, 6))
	if m == nil || !strings.Contains(m.Detail, "writeback") {
		t.Fatalf("wrong wdata not flagged: %v", m)
	}
}

func TestCommitWrongPC(t *testing.T) {
	chk := harness(t)
	m := chk.Process(commitRec(1, mem.RAMBase+8, 3, 0))
	if m == nil || !strings.Contains(m.Detail, "pc") {
		t.Fatalf("wrong pc not flagged: %v", m)
	}
}

func TestStoreEventChecked(t *testing.T) {
	chk := harness(t)
	chk.Process(commitRec(1, mem.RAMBase, 1, 5))
	// Store commit (no register write).
	st := &event.InstrCommit{PC: mem.RAMBase + 4, Instr: instrAt(mem.RAMBase + 4)}
	if m := chk.Process(event.RecordOf(2, 0, st)); m != nil {
		t.Fatalf("store commit flagged: %v", m)
	}
	good := &event.Store{Addr: mem.RAMBase + 0x1000, VAddr: mem.RAMBase + 0x1000, Data: 5, Mask: 8}
	if m := chk.Process(event.RecordOf(2, 0, good)); m != nil {
		t.Fatalf("good store flagged: %v", m)
	}
	bad := &event.Store{Addr: mem.RAMBase + 0x1000, Data: 7, Mask: 8}
	if m := chk.Process(event.RecordOf(2, 0, bad)); m == nil {
		t.Fatal("bad store data not flagged")
	}
}

func TestLoadEventChecked(t *testing.T) {
	chk := harness(t)
	chk.Process(commitRec(1, mem.RAMBase, 1, 5))
	chk.Process(event.RecordOf(2, 0, &event.InstrCommit{PC: mem.RAMBase + 4, Instr: instrAt(mem.RAMBase + 4)}))
	chk.Process(commitRec(3, mem.RAMBase+8, 3, 5))
	bad := &event.Load{PAddr: mem.RAMBase + 0x1000, Data: 99, Mask: ^uint64(0)}
	if m := chk.Process(event.RecordOf(3, 0, bad)); m == nil {
		t.Fatal("bad load data not flagged")
	}
}

func TestSkipCommitSynchronizes(t *testing.T) {
	chk := harness(t)
	skip := &event.InstrCommit{
		PC: mem.RAMBase, Flags: event.CommitSkip | event.CommitRfWen, Wdest: 9, Wdata: 0xFEED,
	}
	if m := chk.Process(event.RecordOf(1, 0, skip)); m != nil {
		t.Fatalf("skip flagged: %v", m)
	}
	cc := chk.Cores[0]
	if cc.Ref.M.State.GPR[9] != 0xFEED {
		t.Errorf("x9 = %#x after skip", cc.Ref.M.State.GPR[9])
	}
	if cc.InstrRet() != 1 {
		t.Errorf("instret = %d", cc.InstrRet())
	}
}

func TestInterruptWrongPC(t *testing.T) {
	chk := harness(t)
	m := chk.Process(event.RecordOf(0, 0, &event.Interrupt{Cause: isa.IntTimerM, PC: 0xBAD}))
	if m == nil || !strings.Contains(m.Detail, "interrupt") {
		t.Fatalf("interrupt at wrong pc not flagged: %v", m)
	}
}

func TestSnapshotCompare(t *testing.T) {
	chk := harness(t)
	chk.Process(commitRec(1, mem.RAMBase, 1, 5))
	cc := chk.Cores[0]

	good := snapshot.AppendIntRegState(nil, cc.Ref.M)
	if m := chk.Process(event.Record{Seq: 1, Kind: event.KindArchIntRegState, Data: good}); m != nil {
		t.Fatalf("matching snapshot flagged: %v", m)
	}
	bad := append([]byte(nil), good...)
	bad[4*8] ^= 1 // x4
	m := chk.Process(event.Record{Seq: 1, Kind: event.KindArchIntRegState, Data: bad})
	if m == nil || m.Kind != event.KindArchIntRegState {
		t.Fatalf("diverged snapshot not flagged: %v", m)
	}
	m = chk.Process(event.Record{Seq: 1, Kind: event.KindArchIntRegState, Data: good[:8]})
	if m == nil || m.Seq != 1 || !strings.Contains(m.Detail, "payload 8B (want 256B)") {
		t.Fatalf("malformed record: %v", m)
	}
}

func TestRefillChecksMemory(t *testing.T) {
	chk := harness(t)
	cc := chk.Cores[0]
	line := mem.RAMBase + 0x1000&^uint64(63)
	var rf event.Refill
	rf.Addr = line
	for i := range rf.Data {
		rf.Data[i] = cc.Ref.M.Mem.Read(line+uint64(i)*8, 8)
	}
	if m := chk.Process(event.RecordOf(0, 0, &rf)); m != nil {
		t.Fatalf("matching refill flagged: %v", m)
	}
	rf.Data[3] ^= 0x40
	if m := chk.Process(event.RecordOf(0, 0, &rf)); m == nil {
		t.Fatal("corrupt refill not flagged")
	}
}

func TestTLBIdentityCheck(t *testing.T) {
	chk := harness(t)
	ok := &event.L1TLB{VPN: 0x80001, PPN: 0x80001, Perm: 0xF, Level: 2}
	if m := chk.Process(event.RecordOf(0, 0, ok)); m != nil {
		t.Fatalf("identity TLB fill flagged: %v", m)
	}
	bad := &event.L1TLB{VPN: 0x80001, PPN: 0x90001}
	if m := chk.Process(event.RecordOf(0, 0, bad)); m == nil {
		t.Fatal("wrong PPN not flagged")
	}
}

func TestTrapRecorded(t *testing.T) {
	chk := harness(t)
	chk.Process(event.RecordOf(0, 0, &event.Trap{Code: 0, PC: mem.RAMBase}))
	fin, code := chk.Finished()
	if !fin || code != 0 {
		t.Errorf("trap not recorded: %v %d", fin, code)
	}
}

func TestUnknownCoreRejected(t *testing.T) {
	chk := harness(t)
	if m := chk.Process(event.RecordOf(0, 5, &event.Trap{})); m == nil {
		t.Error("record for unknown core accepted")
	}
}

func TestMismatchErrorString(t *testing.T) {
	m := &checker.Mismatch{Core: 1, Seq: 42, Kind: event.KindLoad, PC: 0x80000000, Detail: "boom"}
	s := m.Error()
	if !strings.Contains(s, "seq 42") || !strings.Contains(s, "Load") {
		t.Errorf("error string: %s", s)
	}
	m.Fused = true
	if !strings.Contains(m.Error(), "fused") {
		t.Error("fused flag not rendered")
	}
}

// TestProcessItemStateCompareIsWireSpace: a raw item's snapshot payload is
// compared byte for byte with the REF's encoding, padding included — the
// codec always encodes padding as zeros, so a nonzero padding word is a
// diverged stream, not a field-equal one. ProcessItem and Process agree on
// every field-level divergence.
func TestProcessItemStateCompareIsWireSpace(t *testing.T) {
	chk := harness(t)
	chk.Process(commitRec(1, mem.RAMBase, 1, 5))
	cc := chk.Cores[0]
	good, _ := snapshot.AppendState(event.KindCSRState, cc.Ref.M, nil)

	if m, err := chk.ProcessItem(0, event.KindCSRState, good); m != nil || err != nil {
		t.Fatalf("matching CSR snapshot: mismatch %v, err %v", m, err)
	}

	bad := append([]byte(nil), good...)
	bad[8] ^= 0x10 // mcause
	m, err := chk.ProcessItem(0, event.KindCSRState, bad)
	if err != nil || m == nil || m.Kind != event.KindCSRState {
		t.Fatalf("diverged CSR snapshot: mismatch %v, err %v", m, err)
	}
	ev, err := event.Decode(event.KindCSRState, bad)
	if err != nil {
		t.Fatal(err)
	}
	if want := chk.Process(event.RecordOf(0, 0, ev)); want == nil || *want != *m {
		t.Fatalf("ProcessItem %+v, Process %+v", m, want)
	}

	pad := append([]byte(nil), good...)
	pad[len(pad)-1] = 1 // CSRState ends in four padding words
	m, err = chk.ProcessItem(0, event.KindCSRState, pad)
	if err != nil || m == nil || !strings.Contains(m.Detail, "word at byte 152") {
		t.Fatalf("nonzero padding: mismatch %v, err %v", m, err)
	}
}
