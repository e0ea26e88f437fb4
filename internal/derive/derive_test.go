package derive

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/event"
	"repro/internal/isa"
	"repro/internal/mem"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden fixtures")

func machineWith(prog []isa.Inst) *arch.Machine {
	ram := mem.New()
	addr := mem.RAMBase
	for _, in := range prog {
		ram.Write(addr, 4, uint64(isa.MustEncode(in)))
		addr += 4
	}
	return arch.NewMachine(ram)
}

var allOn = func() (on [event.NumKinds]bool) {
	for k := range on {
		on[k] = true
	}
	return on
}()

// derived returns the derived records of an executed instruction.
func derived(m *arch.Machine, ex *arch.Exec, vstartBefore uint64) []event.Record {
	var a event.Arena
	AppendEvents(&a, 0, 0, &allOn, m, ex, vstartBefore)
	return a.Recs
}

func kinds(recs []event.Record) []event.Kind {
	out := make([]event.Kind, len(recs))
	for i, r := range recs {
		out[i] = r.Kind
	}
	return out
}

func TestLoadDerivation(t *testing.T) {
	m := machineWith([]isa.Inst{{Op: isa.OpLD, Rd: 1, Rs1: 2, Imm: 0}})
	m.State.GPR[2] = mem.RAMBase + 0x100
	m.Mem.Write(mem.RAMBase+0x100, 8, 0xABCD)
	ex := m.Step()
	evs := derived(m, &ex, 0)
	if len(evs) != 1 {
		t.Fatalf("events = %v", kinds(evs))
	}
	ev, _ := evs[0].Event()
	ld, ok := ev.(*event.Load)
	if !ok || ld.Data != 0xABCD || ld.MMIO != 0 {
		t.Fatalf("load event = %+v", evs[0])
	}
}

func TestAtomicAndLrScDerivation(t *testing.T) {
	m := machineWith([]isa.Inst{
		{Op: isa.OpLRD, Rd: 1, Rs1: 2},
		{Op: isa.OpSCD, Rd: 3, Rs1: 2, Rs2: 4},
		{Op: isa.OpAMOADDD, Rd: 5, Rs1: 2, Rs2: 4},
	})
	m.State.GPR[2] = mem.RAMBase + 0x200
	ex := m.Step()
	got := kinds(derived(m, &ex, 0))
	if len(got) != 2 || got[0] != event.KindLoad || got[1] != event.KindLrSc {
		t.Errorf("lr.d derives %v", got)
	}
	ex = m.Step()
	got = kinds(derived(m, &ex, 0))
	if len(got) != 2 || got[0] != event.KindStore || got[1] != event.KindLrSc {
		t.Errorf("sc.d derives %v", got)
	}
	ex = m.Step()
	got = kinds(derived(m, &ex, 0))
	if len(got) != 1 || got[0] != event.KindAtomic {
		t.Errorf("amo derives %v", got)
	}
}

func TestExceptionDerivation(t *testing.T) {
	m := machineWith([]isa.Inst{{Op: isa.OpECALL}})
	ex := m.Step()
	got := kinds(derived(m, &ex, 0))
	if len(got) != 1 || got[0] != event.KindException {
		t.Errorf("ecall derives %v", got)
	}

	m = machineWith([]isa.Inst{{Op: isa.OpHLVD, Rd: 1, Rs1: 2}})
	ex = m.Step() // hgatp=0 → guest fault
	got = kinds(derived(m, &ex, 0))
	want := []event.Kind{event.KindException, event.KindGuestPageFault, event.KindHTrap}
	if len(got) != len(want) {
		t.Fatalf("guest fault derives %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("guest fault event %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestVectorDerivationWithVstart(t *testing.T) {
	m := machineWith([]isa.Inst{
		{Op: isa.OpVSETVLI, Rd: 1, Rs1: 0, Imm: 0xC1},
		{Op: isa.OpVADDVV, Rd: 1, Rs1: 2, Rs2: 3},
	})
	m.Step()
	m.State.SetCSR(isa.CSRVstart, 2)
	vb := m.State.CSRVal(isa.CSRVstart)
	ex := m.Step()
	got := kinds(derived(m, &ex, vb))
	want := []event.Kind{event.KindVecCommit, event.KindVecWriteback, event.KindVstartUpdate}
	if len(got) != len(want) {
		t.Fatalf("vadd derives %v", got)
	}
}

func TestDigestOrderInsensitive(t *testing.T) {
	add := func(d *Digest, ev event.Event) { d.Add(ev.Kind(), event.EncodeValue(ev)) }
	a := &event.Load{PAddr: 1, Data: 2}
	b := &event.Store{Addr: 3, Data: 4}
	var d1, d2 Digest
	add(&d1, a)
	add(&d1, b)
	add(&d2, b)
	add(&d2, a)
	if !d1.Equal(d2) {
		t.Error("digest is order-sensitive")
	}
	var d3 Digest
	add(&d3, a)
	if d1.Equal(d3) {
		t.Error("digest ignores content")
	}
	var d4 Digest
	add(&d4, a)
	add(&d4, &event.Store{Addr: 3, Data: 5})
	if d1.Equal(d4) {
		t.Error("digest ignores field changes")
	}
}

// TestAppendEventsFilters: a kind switched off in the filter is skipped and
// leaves no bytes behind, so the arena holds exactly the monitored events.
func TestAppendEventsFilters(t *testing.T) {
	m := machineWith([]isa.Inst{{Op: isa.OpLRD, Rd: 1, Rs1: 2}})
	m.State.GPR[2] = mem.RAMBase + 0x200
	ex := m.Step()
	on := allOn
	on[event.KindLoad] = false
	var a event.Arena
	AppendEvents(&a, 7, 1, &on, m, &ex, 0)
	if len(a.Recs) != 1 || a.Recs[0].Kind != event.KindLrSc || a.Recs[0].Seq != 7 || a.Recs[0].Core != 1 ||
		len(a.Buf) != event.SizeOf(event.KindLrSc) {
		t.Fatalf("filtered derivation = %v (%dB)", a.Recs, len(a.Buf))
	}
}

// digestLines renders, per kind, the digest of one patterned event and of
// the zero event, then the running digest over all of them.
func digestLines(t *testing.T, add func(*Digest, event.Event)) []string {
	t.Helper()
	var lines []string
	var all Digest
	for k := event.Kind(0); k < event.NumKinds; k++ {
		pat := make([]byte, event.SizeOf(k))
		for i := range pat {
			pat[i] = byte(i*37 + int(k)*11 + 1)
		}
		ev, err := event.Decode(k, pat)
		if err != nil {
			t.Fatal(err)
		}
		var one, zero Digest
		add(&one, ev)
		add(&zero, event.InfoOf(k).New())
		add(&all, ev)
		lines = append(lines, fmt.Sprintf("%v pattern=%016x zero=%016x all=%d/%016x", k, one.Sum, zero.Sum, all.Count, all.Sum))
	}
	return lines
}

// TestDigestGolden pins Digest.Add per kind to sums captured when it still
// hashed typed events, so the byte form the monitor and checker fold cannot
// drift from it.
func TestDigestGolden(t *testing.T) {
	got := digestLines(t, func(d *Digest, ev event.Event) { d.Add(ev.Kind(), event.EncodeValue(ev)) })
	path := filepath.Join("testdata", "digest_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden fixture missing (run with -update to create): %v", err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(want) != len(got) {
		t.Fatalf("fixture has %d kinds, want %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest drifted:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
