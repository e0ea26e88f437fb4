package snapshot

import (
	"bytes"
	"testing"

	"repro/internal/arch"
	"repro/internal/event"
	"repro/internal/isa"
	"repro/internal/mem"
)

func machine() *arch.Machine {
	m := arch.NewMachine(mem.New())
	m.State.GPR[5] = 0xAA
	m.State.FPR[2] = 0xBB
	m.State.VReg[1][3] = 0xCC
	m.State.SetCSR(isa.CSRMstatus, 0x1888)
	m.State.SetCSR(isa.CSRVl, 4)
	m.State.SetCSR(isa.CSRHgatp, 1)
	m.State.SetCSR(isa.CSRFcsr, 0xE0)
	return m
}

// snap decodes m's snapshot of kind k.
func snap(t *testing.T, m *arch.Machine, k event.Kind) event.Event {
	t.Helper()
	enc, ok := AppendState(k, m, nil)
	if !ok {
		t.Fatalf("AppendState(%v) refused a snapshot kind", k)
	}
	ev, err := event.Decode(k, enc)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestBuildersReflectState(t *testing.T) {
	m := machine()
	if snap(t, m, event.KindArchIntRegState).(*event.ArchIntRegState).GPR[5] != 0xAA {
		t.Error("int reg snapshot wrong")
	}
	if snap(t, m, event.KindArchFpRegState).(*event.ArchFpRegState).FPR[2] != 0xBB {
		t.Error("fp reg snapshot wrong")
	}
	if snap(t, m, event.KindArchVecRegState).(*event.ArchVecRegState).VReg[1][3] != 0xCC {
		t.Error("vec reg snapshot wrong")
	}
	cs := snap(t, m, event.KindCSRState).(*event.CSRState)
	if cs.Mstatus != 0x1888 || cs.Priv != 3 {
		t.Errorf("csr snapshot: %+v", cs)
	}
	if vc := snap(t, m, event.KindVecCSRState).(*event.VecCSRState); vc.Vl != 4 || vc.Vlenb != isa.VLenBytes {
		t.Error("vec csr snapshot wrong")
	}
	if snap(t, m, event.KindHCSRState).(*event.HCSRState).Hgatp != 1 {
		t.Error("hypervisor snapshot wrong")
	}
	if snap(t, m, event.KindFpCSRState).(*event.FpCSRState).Fcsr != 0xE0 {
		t.Error("fcsr snapshot wrong")
	}
}

func TestMipOmittedFromCSRState(t *testing.T) {
	// mip reflects live device state that the REF cannot reproduce; the
	// snapshot must report zero so interrupt wiring never causes spurious
	// mismatches (NDE synchronization handles delivery instead).
	m := machine()
	m.State.SetCSR(isa.CSRMip, 0x880)
	if snap(t, m, event.KindCSRState).(*event.CSRState).Mip != 0 {
		t.Error("mip leaked into the comparison snapshot")
	}
}

// TestAppendStateDispatch: AppendState encodes exactly what the kind's
// Append encoder writes, so the DUT's emitted bytes and the checker's
// wire-space compare cannot drift apart.
func TestAppendStateDispatch(t *testing.T) {
	m := machine()
	encoders := []func([]byte, *arch.Machine) []byte{
		AppendIntRegState, AppendFpRegState, AppendCSRState,
		AppendVecRegState, AppendVecCSRState, AppendFpCSRState,
		AppendHCSRState, AppendDebugCSRState, AppendTriggerCSRState,
	}
	if len(SnapshotKinds) != 9 || len(encoders) != len(SnapshotKinds) {
		t.Fatalf("snapshot kinds = %d, want the 9 register-update kinds", len(SnapshotKinds))
	}
	for i, k := range SnapshotKinds {
		want := encoders[i]([]byte{0xEE}, m)
		if len(want) != 1+event.SizeOf(k) || want[0] != 0xEE {
			t.Fatalf("encoder %d for %v appended %dB, want %dB", i, k, len(want)-1, event.SizeOf(k))
		}
		got, ok := AppendState(k, m, nil)
		if !ok || !bytes.Equal(got, want[1:]) {
			t.Errorf("AppendState(%v) differs from its encoder", k)
		}
	}
	if _, ok := AppendState(event.KindLoad, m, nil); ok {
		t.Error("AppendState encoded a non-snapshot kind")
	}
}

// TestAllocBudgetAppendState: with room in dst, encoding the REF's state costs
// no heap allocation — the checker's per-snapshot compare path.
func TestAllocBudgetAppendState(t *testing.T) {
	m := machine()
	dst := make([]byte, 0, 2048)
	for _, k := range SnapshotKinds {
		if n := testing.AllocsPerRun(100, func() { AppendState(k, m, dst) }); n != 0 {
			t.Errorf("AppendState(%v) allocates %.0f/op", k, n)
		}
	}
}

func TestSnapshotsAreValueCopies(t *testing.T) {
	m := machine()
	enc := AppendIntRegState(nil, m)
	m.State.GPR[5] = 0xDD
	ev, _ := event.Decode(event.KindArchIntRegState, enc)
	if ev.(*event.ArchIntRegState).GPR[5] != 0xAA {
		t.Error("snapshot aliases live state")
	}
}
