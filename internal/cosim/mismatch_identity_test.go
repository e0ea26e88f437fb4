package cosim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/checker"
	"repro/internal/dut"
	"repro/internal/event"
	"repro/internal/snapshot"
	"repro/internal/squash"
	"repro/internal/wire"
	"repro/internal/workload"
)

// refState is the REF's wire encoding of its snapshot of kind k.
func refState(k event.Kind, m *arch.Machine) []byte {
	b, _ := snapshot.AppendState(k, m, nil)
	return b
}

// mismatchIdentityLines drives one checker a short clean way into a Linux
// boot, then offers it malformed or diverged items on every path that
// reaches a state compare or a payload decode, and renders each outcome:
// the raw per-event path (CheckerSession), the Squash raw branch, an
// order-tagged NDE and a differenced item (Desquasher). Snapshots compare
// without touching the REF, so all cases share the one position.
func mismatchIdentityLines(t *testing.T) []string {
	t.Helper()
	d := dut.XiangShanDefault()
	prog := workload.Generate(scaled(workload.LinuxBoot(), 2_000), 1, 7)
	chk := checker.New(prog.Image, prog.Entries, 1)
	half := newCheckerSession(Options{}, d, chk)
	desq := squash.NewDesquasher(chk, d.EnabledKinds())

	hw := dut.New(d, prog.Image, prog.Entries, arch.Hooks{})
	for c := 0; c < 40; c++ {
		recs, done := hw.StepCycle()
		if m, err := half.Items(wire.FromRecords(recs)); m != nil || err != nil || done {
			t.Fatalf("clean prefix: cycle %d: mismatch %v, err %v, done %v", c, m, err, done)
		}
	}
	cc := chk.Cores[0]
	if cc.InstrRet() == 0 {
		t.Fatal("clean prefix retired nothing")
	}

	var lines []string
	mismatch := func(path string, k event.Kind, m *checker.Mismatch, err error) {
		switch {
		case err != nil:
			lines = append(lines, fmt.Sprintf("%s %v: error %q", path, k, err.Error()))
		case m == nil:
			lines = append(lines, fmt.Sprintf("%s %v: no mismatch", path, k))
		default:
			lines = append(lines, fmt.Sprintf("%s %v: kind=%v seq=%d pc=%#x fused=%v detail=%q",
				path, k, m.Kind, m.Seq, m.PC, m.Fused, m.Detail))
		}
	}
	raw := func(k event.Kind, payload []byte) wire.Item {
		return wire.Item{Type: wire.TypeRawBase + uint8(k), Payload: payload}
	}

	for _, k := range snapshot.SnapshotKinds {
		good := refState(k, cc.Ref.M)
		bad := append([]byte(nil), good...)
		w := min(3, len(bad)/8-1) * 8
		binary.LittleEndian.PutUint64(bad[w:], binary.LittleEndian.Uint64(bad[w:])^0x8000_0000_0000_0401)

		m, err := half.Items([]wire.Item{raw(k, good)})
		mismatch("raw-clean", k, m, err)
		half.mismatch = nil
		m, err = half.Items([]wire.Item{raw(k, bad)})
		mismatch("raw", k, m, err)
		half.mismatch = nil
		mismatch("squash-raw", k, desq.Process(raw(k, bad)), nil)

		goodEv, err := event.Decode(k, good)
		if err != nil {
			t.Fatal(err)
		}
		badEv, err := event.Decode(k, bad)
		if err != nil {
			t.Fatal(err)
		}
		tag := cc.InstrRet()
		mismatch("nde", k, desq.Process(wire.NDEItem(0, 0, tag, badEv)), nil)
		// A clean first instance seeds the completion base; the diff
		// against it carries only the corrupted word.
		mismatch("nde-clean", k, desq.Process(wire.NDEItem(0, 0, tag, goodEv)), nil)
		mismatch("diff", k, desq.Process(wire.DiffItem(0, 0, tag, goodEv, badEv)), nil)
	}

	for _, k := range []event.Kind{event.KindInstrCommit, event.KindLoad, event.KindArchIntRegState, event.KindCSRState} {
		full := make([]byte, event.SizeOf(k))
		for _, p := range []struct {
			name    string
			payload []byte
		}{
			{"truncated", full[:len(full)-1]},
			{"oversized", append(full, make([]byte, 8)...)},
			{"empty", nil},
		} {
			m, err := half.Items([]wire.Item{raw(k, p.payload)})
			if de := (*event.DecodeError)(nil); !errors.As(err, &de) {
				t.Errorf("%s %v payload: error %v, want *event.DecodeError", p.name, k, err)
			}
			mismatch("raw-"+p.name, k, m, err)
			half.mismatch = nil
			mismatch("squash-raw-"+p.name, k, desq.Process(raw(k, p.payload)), nil)
		}
	}
	notRaw := wire.Item{Type: wire.TypeDigest + 2, Payload: make([]byte, 16)} // unassigned type
	m, err := half.Items([]wire.Item{notRaw})
	mismatch("raw-not-raw", event.KindInstrCommit, m, err)
	half.mismatch = nil
	mismatch("squash-raw-not-raw", event.KindInstrCommit, desq.Process(notRaw), nil)
	m, err = half.Items([]wire.Item{{Type: wire.TypeRawBase, Core: 3, Payload: make([]byte, event.SizeOf(event.KindInstrCommit))}})
	mismatch("raw-unknown-core", event.KindInstrCommit, m, err)
	return lines
}

// TestMismatchIdentity pins every diverged-snapshot and malformed-payload
// outcome — Mismatch kind, seq, pc and Detail, or the decode error text —
// to the strings the decode-then-compare checker produced before state
// compares moved to wire space and raw items to in-place decoding.
func TestMismatchIdentity(t *testing.T) {
	got := mismatchIdentityLines(t)
	if len(got) != len(goldenMismatchLines) {
		for _, l := range got {
			t.Log(l)
		}
		t.Fatalf("%d outcomes, want %d", len(got), len(goldenMismatchLines))
	}
	for i := range got {
		if got[i] != goldenMismatchLines[i] {
			t.Errorf("outcome %d:\n got  %s\n want %s", i, got[i], goldenMismatchLines[i])
		}
	}
}

// goldenMismatchLines: seed-7 LinuxBoot, 40 clean cycles on XiangShanDefault;
// the corrupted word is word min(3, last) XOR 0x8000_0000_0000_0401.
var goldenMismatchLines = []string{
	"raw-clean ArchIntRegState: no mismatch",
	"raw ArchIntRegState: kind=ArchIntRegState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: ArchIntRegState word at byte 24: DUT d74f6d1a00000080 REF d64b6d1a00000000\"",
	"squash-raw ArchIntRegState: kind=ArchIntRegState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: ArchIntRegState word at byte 24: DUT d74f6d1a00000080 REF d64b6d1a00000000\"",
	"nde ArchIntRegState: kind=ArchIntRegState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: ArchIntRegState word at byte 24: DUT d74f6d1a00000080 REF d64b6d1a00000000\"",
	"nde-clean ArchIntRegState: no mismatch",
	"diff ArchIntRegState: kind=ArchIntRegState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: ArchIntRegState word at byte 24: DUT d74f6d1a00000080 REF d64b6d1a00000000\"",
	"raw-clean ArchFpRegState: no mismatch",
	"raw ArchFpRegState: kind=ArchFpRegState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: ArchFpRegState word at byte 24: DUT 0104000000000080 REF 0000000000000000\"",
	"squash-raw ArchFpRegState: kind=ArchFpRegState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: ArchFpRegState word at byte 24: DUT 0104000000000080 REF 0000000000000000\"",
	"nde ArchFpRegState: kind=ArchFpRegState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: ArchFpRegState word at byte 24: DUT 0104000000000080 REF 0000000000000000\"",
	"nde-clean ArchFpRegState: no mismatch",
	"diff ArchFpRegState: kind=ArchFpRegState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: ArchFpRegState word at byte 24: DUT 0104000000000080 REF 0000000000000000\"",
	"raw-clean CSRState: no mismatch",
	"raw CSRState: kind=CSRState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: CSRState word at byte 24: DUT 0104000000000080 REF 0000000000000000\"",
	"squash-raw CSRState: kind=CSRState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: CSRState word at byte 24: DUT 0104000000000080 REF 0000000000000000\"",
	"nde CSRState: kind=CSRState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: CSRState word at byte 24: DUT 0104000000000080 REF 0000000000000000\"",
	"nde-clean CSRState: no mismatch",
	"diff CSRState: kind=CSRState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: CSRState word at byte 24: DUT 0104000000000080 REF 0000000000000000\"",
	"raw-clean ArchVecRegState: no mismatch",
	"raw ArchVecRegState: kind=ArchVecRegState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: ArchVecRegState word at byte 24: DUT 0104000000000080 REF 0000000000000000\"",
	"squash-raw ArchVecRegState: kind=ArchVecRegState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: ArchVecRegState word at byte 24: DUT 0104000000000080 REF 0000000000000000\"",
	"nde ArchVecRegState: kind=ArchVecRegState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: ArchVecRegState word at byte 24: DUT 0104000000000080 REF 0000000000000000\"",
	"nde-clean ArchVecRegState: no mismatch",
	"diff ArchVecRegState: kind=ArchVecRegState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: ArchVecRegState word at byte 24: DUT 0104000000000080 REF 0000000000000000\"",
	"raw-clean VecCSRState: no mismatch",
	"raw VecCSRState: kind=VecCSRState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: VecCSRState word at byte 24: DUT 0104000000000080 REF 0000000000000000\"",
	"squash-raw VecCSRState: kind=VecCSRState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: VecCSRState word at byte 24: DUT 0104000000000080 REF 0000000000000000\"",
	"nde VecCSRState: kind=VecCSRState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: VecCSRState word at byte 24: DUT 0104000000000080 REF 0000000000000000\"",
	"nde-clean VecCSRState: no mismatch",
	"diff VecCSRState: kind=VecCSRState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: VecCSRState word at byte 24: DUT 0104000000000080 REF 0000000000000000\"",
	"raw-clean FpCSRState: no mismatch",
	"raw FpCSRState: kind=FpCSRState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: FpCSRState word at byte 0: DUT 0104000000000080 REF 0000000000000000\"",
	"squash-raw FpCSRState: kind=FpCSRState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: FpCSRState word at byte 0: DUT 0104000000000080 REF 0000000000000000\"",
	"nde FpCSRState: kind=FpCSRState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: FpCSRState word at byte 0: DUT 0104000000000080 REF 0000000000000000\"",
	"nde-clean FpCSRState: no mismatch",
	"diff FpCSRState: kind=FpCSRState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: FpCSRState word at byte 0: DUT 0104000000000080 REF 0000000000000000\"",
	"raw-clean HCSRState: no mismatch",
	"raw HCSRState: kind=HCSRState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: HCSRState word at byte 24: DUT 0104000000000080 REF 0000000000000000\"",
	"squash-raw HCSRState: kind=HCSRState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: HCSRState word at byte 24: DUT 0104000000000080 REF 0000000000000000\"",
	"nde HCSRState: kind=HCSRState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: HCSRState word at byte 24: DUT 0104000000000080 REF 0000000000000000\"",
	"nde-clean HCSRState: no mismatch",
	"diff HCSRState: kind=HCSRState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: HCSRState word at byte 24: DUT 0104000000000080 REF 0000000000000000\"",
	"raw-clean DebugCSRState: no mismatch",
	"raw DebugCSRState: kind=DebugCSRState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: DebugCSRState word at byte 24: DUT 0104000000000080 REF 0000000000000000\"",
	"squash-raw DebugCSRState: kind=DebugCSRState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: DebugCSRState word at byte 24: DUT 0104000000000080 REF 0000000000000000\"",
	"nde DebugCSRState: kind=DebugCSRState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: DebugCSRState word at byte 24: DUT 0104000000000080 REF 0000000000000000\"",
	"nde-clean DebugCSRState: no mismatch",
	"diff DebugCSRState: kind=DebugCSRState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: DebugCSRState word at byte 24: DUT 0104000000000080 REF 0000000000000000\"",
	"raw-clean TriggerCSRState: no mismatch",
	"raw TriggerCSRState: kind=TriggerCSRState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: TriggerCSRState word at byte 24: DUT 0104000000000080 REF 0000000000000000\"",
	"squash-raw TriggerCSRState: kind=TriggerCSRState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: TriggerCSRState word at byte 24: DUT 0104000000000080 REF 0000000000000000\"",
	"nde TriggerCSRState: kind=TriggerCSRState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: TriggerCSRState word at byte 24: DUT 0104000000000080 REF 0000000000000000\"",
	"nde-clean TriggerCSRState: no mismatch",
	"diff TriggerCSRState: kind=TriggerCSRState seq=46 pc=0x800000b4 fused=false detail=\"state snapshot diverged: TriggerCSRState word at byte 24: DUT 0104000000000080 REF 0000000000000000\"",
	"raw-truncated InstrCommit: error \"event: decode InstrCommit: payload 31B (want 32B): payload length does not match wire size\"",
	"squash-raw-truncated InstrCommit: kind=InstrCommit seq=0 pc=0x0 fused=false detail=\"event: decode InstrCommit: payload 31B (want 32B): payload length does not match wire size\"",
	"raw-oversized InstrCommit: error \"event: decode InstrCommit: payload 40B (want 32B): payload length does not match wire size\"",
	"squash-raw-oversized InstrCommit: kind=InstrCommit seq=0 pc=0x0 fused=false detail=\"event: decode InstrCommit: payload 40B (want 32B): payload length does not match wire size\"",
	"raw-empty InstrCommit: error \"event: decode InstrCommit: payload 0B (want 32B): payload length does not match wire size\"",
	"squash-raw-empty InstrCommit: kind=InstrCommit seq=0 pc=0x0 fused=false detail=\"event: decode InstrCommit: payload 0B (want 32B): payload length does not match wire size\"",
	"raw-truncated Load: error \"event: decode Load: payload 39B (want 40B): payload length does not match wire size\"",
	"squash-raw-truncated Load: kind=InstrCommit seq=0 pc=0x0 fused=false detail=\"event: decode Load: payload 39B (want 40B): payload length does not match wire size\"",
	"raw-oversized Load: error \"event: decode Load: payload 48B (want 40B): payload length does not match wire size\"",
	"squash-raw-oversized Load: kind=InstrCommit seq=0 pc=0x0 fused=false detail=\"event: decode Load: payload 48B (want 40B): payload length does not match wire size\"",
	"raw-empty Load: error \"event: decode Load: payload 0B (want 40B): payload length does not match wire size\"",
	"squash-raw-empty Load: kind=InstrCommit seq=0 pc=0x0 fused=false detail=\"event: decode Load: payload 0B (want 40B): payload length does not match wire size\"",
	"raw-truncated ArchIntRegState: error \"event: decode ArchIntRegState: payload 255B (want 256B): payload length does not match wire size\"",
	"squash-raw-truncated ArchIntRegState: kind=InstrCommit seq=0 pc=0x0 fused=false detail=\"event: decode ArchIntRegState: payload 255B (want 256B): payload length does not match wire size\"",
	"raw-oversized ArchIntRegState: error \"event: decode ArchIntRegState: payload 264B (want 256B): payload length does not match wire size\"",
	"squash-raw-oversized ArchIntRegState: kind=InstrCommit seq=0 pc=0x0 fused=false detail=\"event: decode ArchIntRegState: payload 264B (want 256B): payload length does not match wire size\"",
	"raw-empty ArchIntRegState: error \"event: decode ArchIntRegState: payload 0B (want 256B): payload length does not match wire size\"",
	"squash-raw-empty ArchIntRegState: kind=InstrCommit seq=0 pc=0x0 fused=false detail=\"event: decode ArchIntRegState: payload 0B (want 256B): payload length does not match wire size\"",
	"raw-truncated CSRState: error \"event: decode CSRState: payload 159B (want 160B): payload length does not match wire size\"",
	"squash-raw-truncated CSRState: kind=InstrCommit seq=0 pc=0x0 fused=false detail=\"event: decode CSRState: payload 159B (want 160B): payload length does not match wire size\"",
	"raw-oversized CSRState: error \"event: decode CSRState: payload 168B (want 160B): payload length does not match wire size\"",
	"squash-raw-oversized CSRState: kind=InstrCommit seq=0 pc=0x0 fused=false detail=\"event: decode CSRState: payload 168B (want 160B): payload length does not match wire size\"",
	"raw-empty CSRState: error \"event: decode CSRState: payload 0B (want 160B): payload length does not match wire size\"",
	"squash-raw-empty CSRState: kind=InstrCommit seq=0 pc=0x0 fused=false detail=\"event: decode CSRState: payload 0B (want 160B): payload length does not match wire size\"",
	"raw-not-raw InstrCommit: error \"wire: item type 67 is not raw\"",
	"squash-raw-not-raw InstrCommit: kind=InstrCommit seq=0 pc=0x0 fused=false detail=\"wire: item type 67 is not raw\"",
	"raw-unknown-core InstrCommit: kind=InstrCommit seq=0 pc=0x0 fused=false detail=\"record for unknown core\"",
}
