package event

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestKindCount(t *testing.T) {
	if NumKinds != 32 {
		t.Fatalf("NumKinds = %d, want 32 (paper Table 1)", NumKinds)
	}
}

func TestCategoryCensus(t *testing.T) {
	// Table 1: Control Flow 5, Register Updates 9, Memory Access 3,
	// Memory Hierarchy 6, Extensions 9.
	want := map[Category]int{
		CatControlFlow: 5, CatRegisterUpdate: 9, CatMemoryAccess: 3,
		CatMemoryHierarchy: 6, CatExtension: 9,
	}
	got := map[Category]int{}
	for k := Kind(0); k < NumKinds; k++ {
		got[CategoryOf(k)]++
	}
	for c, n := range want {
		if got[c] != n {
			t.Errorf("%v: %d kinds, want %d", c, got[c], n)
		}
	}
}

func TestDeclaredSizes(t *testing.T) {
	want := map[Kind]int{
		KindInstrCommit: 32, KindTrap: 32, KindException: 32, KindInterrupt: 16,
		KindRedirect: 24, KindArchIntRegState: 256, KindArchFpRegState: 256,
		KindCSRState: 160, KindArchVecRegState: 1360, KindVecCSRState: 56,
		KindFpCSRState: 8, KindHCSRState: 96, KindDebugCSRState: 48,
		KindTriggerCSRState: 64, KindLoad: 40, KindStore: 32, KindAtomic: 48,
		KindSbuffer: 80, KindL1TLB: 32, KindL2TLB: 48, KindRefill: 72,
		KindLrSc: 8, KindCMO: 16, KindVecCommit: 24, KindVecWriteback: 40,
		KindVecMem: 56, KindHTrap: 40, KindGuestPageFault: 32,
		KindVstartUpdate: 16, KindHLoad: 32, KindVirtualInterrupt: 24,
		KindVecExceptionTrack: 32,
	}
	for k, n := range want {
		if SizeOf(k) != n {
			t.Errorf("%v size = %d, want %d", k, SizeOf(k), n)
		}
	}
}

func TestSizeSpreadIs170x(t *testing.T) {
	minSize, maxSize := 1<<30, 0
	for k := Kind(0); k < NumKinds; k++ {
		if s := SizeOf(k); s < minSize {
			minSize = s
		} else if s > maxSize {
			maxSize = s
		}
	}
	if maxSize/minSize != 170 {
		t.Errorf("size spread = %d×, want 170× (paper §4.2.1)", maxSize/minSize)
	}
}

// randomized returns a kind-k event with pseudo-random field contents by
// decoding random bytes; this exercises the full wire width.
func randomized(t *testing.T, k Kind, r *rand.Rand) Event {
	raw := make([]byte, SizeOf(k))
	r.Read(raw)
	// Padding bytes decode to nothing and re-encode as zero, so zero the
	// whole buffer's padding by a decode/encode cycle first.
	ev, err := Decode(k, raw)
	if err != nil {
		t.Fatalf("decode %v: %v", k, err)
	}
	return ev
}

func TestEncodeDecodeRoundTripAllKinds(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for k := Kind(0); k < NumKinds; k++ {
		for i := 0; i < 50; i++ {
			ev := randomized(t, k, r)
			enc := EncodeValue(ev)
			if len(enc) != SizeOf(k) {
				t.Fatalf("%v: encoded %d bytes, want %d", k, len(enc), SizeOf(k))
			}
			back, err := Decode(k, enc)
			if err != nil {
				t.Fatalf("%v: %v", k, err)
			}
			if !reflect.DeepEqual(ev, back) {
				t.Fatalf("%v: round trip mismatch", k)
			}
		}
	}
}

func TestDecodeWrongLength(t *testing.T) {
	if _, err := Decode(KindTrap, make([]byte, 7)); err == nil {
		t.Error("short decode did not fail")
	}
	if _, err := Decode(NumKinds, make([]byte, 8)); err == nil {
		t.Error("unknown kind did not fail")
	}
}

func TestNDEClassification(t *testing.T) {
	if !IsNDE(&Interrupt{}) {
		t.Error("Interrupt must be NDE")
	}
	if !IsNDE(&VirtualInterrupt{}) {
		t.Error("VirtualInterrupt must be NDE")
	}
	if IsNDE(&Load{}) {
		t.Error("RAM load must not be NDE")
	}
	if !IsNDE(&Load{MMIO: 1}) {
		t.Error("MMIO load must be NDE")
	}
	if IsNDE(&InstrCommit{}) {
		t.Error("commit must not be NDE")
	}
}

// TestNDEEncodingMatchesIsNDE pins the byte-level NDE test the fusion unit
// uses to event.IsNDE: for every kind, on zero and patterned payloads, with
// any MMIO field cleared and set.
func TestNDEEncodingMatchesIsNDE(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for k := Kind(0); k < NumKinds; k++ {
		for trial := 0; trial < 4; trial++ {
			pat := make([]byte, SizeOf(k))
			if trial > 0 {
				rng.Read(pat)
			}
			for _, mmio := range []uint8{0, 1} {
				ev, err := Decode(k, pat)
				if err != nil {
					t.Fatal(err)
				}
				if f := reflect.ValueOf(ev).Elem().FieldByName("MMIO"); f.IsValid() {
					f.SetUint(uint64(mmio))
				} else if mmio == 1 {
					continue
				}
				enc := EncodeValue(ev)
				if got, want := IsNDEEncoding(k, enc), IsNDE(ev); got != want {
					t.Errorf("%v (trial %d, mmio %d): IsNDEEncoding %v, IsNDE %v", k, trial, mmio, got, want)
				}
			}
		}
	}
}

func TestRecordString(t *testing.T) {
	rec := RecordOf(9, 1, &Trap{PC: 0x80, Code: 3})
	if got, want := rec.String(), "c1@9 Trap&{PC:128 Code:3 Cycle:0 InstrCnt:0}"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	cp := rec.Clone()
	rec.Data[0] = 0xFF
	if cp.Data[0] != 0x80 {
		t.Error("Clone shares its bytes with the original")
	}
}

func TestArenaPushViews(t *testing.T) {
	var a Arena
	for i := 0; i < 100; i++ { // enough to reallocate Buf several times
		ev := Trap{PC: uint64(i)}
		a.Push(uint64(i), 0, KindTrap, ev.AppendTo(a.Buf))
	}
	for i, r := range a.Recs {
		ev, err := r.Event()
		if err != nil || ev.(*Trap).PC != uint64(i) || cap(r.Data) != len(r.Data) {
			t.Fatalf("record %d = %v (err %v, cap %d)", i, r, err, cap(r.Data))
		}
	}
	a.Reset()
	if len(a.Buf) != 0 || len(a.Recs) != 0 || cap(a.Buf) == 0 {
		t.Errorf("Reset left len %d/%d cap %d", len(a.Buf), len(a.Recs), cap(a.Buf))
	}
}

func TestTotalSizeReasonable(t *testing.T) {
	// One instance of each kind sums to ~3 KiB; the paper's 11.5 KB figure
	// counts multiple hardware instances per kind (8 commit slots etc.),
	// which cmd/events reports per DUT configuration.
	if ts := TotalSize(); ts < 2500 || ts > 4000 {
		t.Errorf("TotalSize = %d, want ~3112", ts)
	}
}

func TestInfoConsistency(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		in := InfoOf(k)
		if in.Kind != k || in.Name != k.String() || in.New == nil {
			t.Errorf("info for %v is inconsistent: %+v", k, in)
		}
		if in.New().Kind() != k {
			t.Errorf("constructor for %v builds %v", k, in.New().Kind())
		}
	}
}

func BenchmarkEncodeCommit(b *testing.B) {
	ev := &InstrCommit{PC: 0x80000000, Instr: 0x13, Wdata: 42}
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = Encode(buf[:0], ev)
	}
}

func BenchmarkDecodeCommit(b *testing.B) {
	raw := EncodeValue(&InstrCommit{PC: 0x80000000})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(KindInstrCommit, raw); err != nil {
			b.Fatal(err)
		}
	}
}
