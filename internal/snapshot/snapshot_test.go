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

func TestBuildersReflectState(t *testing.T) {
	m := machine()
	if IntRegState(m).GPR[5] != 0xAA {
		t.Error("int reg snapshot wrong")
	}
	if FpRegState(m).FPR[2] != 0xBB {
		t.Error("fp reg snapshot wrong")
	}
	if VecRegState(m).VReg[1][3] != 0xCC {
		t.Error("vec reg snapshot wrong")
	}
	cs := CSRState(m)
	if cs.Mstatus != 0x1888 || cs.Priv != 3 {
		t.Errorf("csr snapshot: %+v", cs)
	}
	if VecCSRState(m).Vl != 4 || VecCSRState(m).Vlenb != isa.VLenBytes {
		t.Error("vec csr snapshot wrong")
	}
	if HCSRState(m).Hgatp != 1 {
		t.Error("hypervisor snapshot wrong")
	}
	if FpCSRState(m).Fcsr != 0xE0 {
		t.Error("fcsr snapshot wrong")
	}
}

func TestMipOmittedFromCSRState(t *testing.T) {
	// mip reflects live device state that the REF cannot reproduce; the
	// snapshot must report zero so interrupt wiring never causes spurious
	// mismatches (NDE synchronization handles delivery instead).
	m := machine()
	m.State.SetCSR(isa.CSRMip, 0x880)
	if CSRState(m).Mip != 0 {
		t.Error("mip leaked into the comparison snapshot")
	}
}

// TestAppendStateDispatch: AppendState encodes exactly what the kind's
// constructor builds, so the DUT's emitted event and the checker's
// wire-space compare cannot drift apart.
func TestAppendStateDispatch(t *testing.T) {
	m := machine()
	ir, fr, cs := IntRegState(m), FpRegState(m), CSRState(m)
	vr, vc, fc := VecRegState(m), VecCSRState(m), FpCSRState(m)
	hc, dc, tc := HCSRState(m), DebugCSRState(m), TriggerCSRState(m)
	built := []event.Event{&ir, &fr, &cs, &vr, &vc, &fc, &hc, &dc, &tc}
	if len(SnapshotKinds) != 9 || len(built) != len(SnapshotKinds) {
		t.Fatalf("snapshot kinds = %d, want the 9 register-update kinds", len(SnapshotKinds))
	}
	for i, k := range SnapshotKinds {
		if built[i].Kind() != k {
			t.Fatalf("SnapshotKinds[%d] = %v, constructor builds %v", i, k, built[i].Kind())
		}
		got, ok := AppendState(k, m, nil)
		if !ok || !bytes.Equal(got, event.EncodeValue(built[i])) {
			t.Errorf("AppendState(%v) differs from the constructor's encoding", k)
		}
	}
	if _, ok := AppendState(event.KindLoad, m, nil); ok {
		t.Error("AppendState encoded a non-snapshot kind")
	}
}

// TestAppendStateNoAllocs: with room in dst, encoding the REF's state costs
// no heap allocation — the checker's per-snapshot compare path.
func TestAppendStateNoAllocs(t *testing.T) {
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
	snap := IntRegState(m)
	m.State.GPR[5] = 0xDD
	if snap.GPR[5] != 0xAA {
		t.Error("snapshot aliases live state")
	}
}
