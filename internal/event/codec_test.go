package event

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden fixtures")

// reflectiveEncode is the pre-refactor serialization path: reflection-driven
// encoding/binary.Write into a fresh buffer. The generated codecs must match
// it byte for byte.
func reflectiveEncode(tb testing.TB, ev Event) []byte {
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, ev); err != nil {
		tb.Fatalf("reflective encode %v: %v", ev.Kind(), err)
	}
	return buf.Bytes()
}

func reflectiveDecode(tb testing.TB, k Kind, data []byte) Event {
	ev := infos[k].New()
	if err := binary.Read(bytes.NewReader(data), binary.LittleEndian, ev); err != nil {
		tb.Fatalf("reflective decode %v: %v", k, err)
	}
	return ev
}

// TestCodecMatchesReflective pins the tentpole equivalence: for every kind,
// the generated AppendTo produces exactly the bytes encoding/binary.Write
// would, and DecodeFrom recovers exactly what encoding/binary.Read would.
func TestCodecMatchesReflective(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for k := Kind(0); k < NumKinds; k++ {
		for i := 0; i < 20; i++ {
			ev := randomized(t, k, r)

			want := reflectiveEncode(t, ev)
			got := ev.AppendTo(nil)
			if !bytes.Equal(got, want) {
				t.Fatalf("%v: generated encoding differs from encoding/binary\n got %x\nwant %x", k, got, want)
			}
			if len(got) != ev.EncodedSize() || ev.EncodedSize() != binary.Size(ev) {
				t.Fatalf("%v: EncodedSize %d, len %d, binary.Size %d disagree",
					k, ev.EncodedSize(), len(got), binary.Size(ev))
			}

			dec := infos[k].New()
			n, err := dec.DecodeFrom(want)
			if err != nil || n != len(want) {
				t.Fatalf("%v: DecodeFrom = (%d, %v)", k, n, err)
			}
			ref := reflectiveDecode(t, k, want)
			if !reflect.DeepEqual(dec, ref) {
				t.Fatalf("%v: DecodeFrom disagrees with encoding/binary.Read\n got %+v\nwant %+v", k, dec, ref)
			}
		}
	}
}

// TestAppendToClearsPadding guards the pooled-buffer contract: encoding into
// a dirty (reused) buffer must yield the same bytes as a fresh one, i.e. the
// generated encoders zero every padding byte instead of skipping it.
func TestAppendToClearsPadding(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for k := Kind(0); k < NumKinds; k++ {
		ev := randomized(t, k, r)
		clean := ev.AppendTo(nil)

		dirty := make([]byte, 0, ev.EncodedSize())
		for i := 0; i < cap(dirty); i++ {
			dirty = append(dirty, 0xFF)
		}
		dirty = ev.AppendTo(dirty[:0])
		if !bytes.Equal(clean, dirty) {
			t.Fatalf("%v: encoding into a dirty buffer leaked stale bytes\n clean %x\n dirty %x", k, clean, dirty)
		}
	}
}

func TestDecodeTypedErrors(t *testing.T) {
	var de *DecodeError

	_, err := Decode(NumKinds, make([]byte, 8))
	if !errors.As(err, &de) || !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("unknown kind: got %v, want DecodeError wrapping ErrUnknownKind", err)
	}
	if de.Kind != NumKinds || de.Len != 8 {
		t.Fatalf("unknown kind: DecodeError = %+v", de)
	}

	_, err = Decode(KindTrap, make([]byte, 7))
	if !errors.As(err, &de) || !errors.Is(err, ErrPayloadSize) {
		t.Fatalf("wrong length: got %v, want DecodeError wrapping ErrPayloadSize", err)
	}
	if de.Kind != KindTrap || de.Len != 7 {
		t.Fatalf("wrong length: DecodeError = %+v", de)
	}
	if msg := de.Error(); !strings.Contains(msg, "Trap") || !strings.Contains(msg, "7") {
		t.Fatalf("error message %q lacks kind name or payload length", msg)
	}

	var trap Trap
	if _, err := trap.DecodeFrom(make([]byte, 7)); !errors.Is(err, ErrShortPayload) {
		t.Fatalf("DecodeFrom short: got %v, want ErrShortPayload", err)
	}

	// Oversized slices are exact-size errors for Decode but fine for
	// DecodeFrom, which consumes a prefix.
	if _, err := Decode(KindTrap, make([]byte, 33)); !errors.Is(err, ErrPayloadSize) {
		t.Fatalf("oversize Decode: got %v, want ErrPayloadSize", err)
	}
	if n, err := trap.DecodeFrom(make([]byte, 33)); err != nil || n != 32 {
		t.Fatalf("oversize DecodeFrom = (%d, %v), want (32, nil)", n, err)
	}
}

// goldenEvents returns one deterministic representative event per kind.
func goldenEvents(tb testing.TB) []Event {
	r := rand.New(rand.NewSource(1342)) // fixed seed: fixture is checked in
	evs := make([]Event, 0, NumKinds)
	for k := Kind(0); k < NumKinds; k++ {
		raw := make([]byte, SizeOf(k))
		r.Read(raw)
		ev, err := Decode(k, raw)
		if err != nil {
			tb.Fatalf("decode %v: %v", k, err)
		}
		evs = append(evs, ev)
	}
	return evs
}

// TestGoldenWireFormat fails loudly when the byte layout of any kind changes:
// a layout change silently breaks Squash XOR deltas against recorded traffic
// and invalidates checked-in traces. Regenerate with -update only for an
// intentional, versioned format change.
func TestGoldenWireFormat(t *testing.T) {
	path := filepath.Join("testdata", "golden_wire.txt")

	if *updateGolden {
		var sb strings.Builder
		sb.WriteString("# Golden wire encodings: one '<kind> <hex>' line per kind.\n")
		sb.WriteString("# Regenerate with: go test ./internal/event -run TestGoldenWireFormat -update\n")
		for _, ev := range goldenEvents(t) {
			fmt.Fprintf(&sb, "%v %s\n", ev.Kind(), hex.EncodeToString(EncodeValue(ev)))
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("golden fixture missing (run with -update to create): %v", err)
	}
	defer f.Close()

	want := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hexEnc, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed fixture line %q", line)
		}
		want[name] = hexEnc
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != int(NumKinds) {
		t.Fatalf("fixture covers %d kinds, want %d (rerun with -update after adding kinds)", len(want), NumKinds)
	}

	for _, ev := range goldenEvents(t) {
		name := ev.Kind().String()
		got := hex.EncodeToString(EncodeValue(ev))
		if want[name] != got {
			t.Errorf("%s: wire layout changed\n got  %s\n want %s\n"+
				"If intentional, bump the format consumers and regenerate with -update.",
				name, got, want[name])
		}
	}
}

// codecRoundTrip returns one steady-state codec round trip — encode src into
// a reused buffer, decode into dst — the op BenchmarkCodecRoundTrip* times
// and TestAllocBudgetCodecRoundTrip* pins.
func codecRoundTrip(tb testing.TB, src, dst Event) func() {
	buf := make([]byte, 0, src.EncodedSize())
	return func() {
		buf = src.AppendTo(buf[:0])
		if _, err := dst.DecodeFrom(buf); err != nil {
			tb.Fatal(err)
		}
	}
}

func commitRoundTrip(tb testing.TB) func() {
	return codecRoundTrip(tb, &InstrCommit{PC: 0x80000000, Instr: 0x13, Flags: CommitRfWen, Wdata: 42}, &InstrCommit{})
}

// largestRoundTrip round-trips the 1360-byte ArchVecRegState — the event
// whose reflective encode cost dominated snapshot cycles.
func largestRoundTrip(tb testing.TB) (op func(), size int64) {
	src := &ArchVecRegState{}
	for i := range src.VReg {
		for j := range src.VReg[i] {
			src.VReg[i][j] = uint64(i*4 + j)
		}
	}
	return codecRoundTrip(tb, src, &ArchVecRegState{}), int64(src.EncodedSize())
}

func TestAllocBudgetCodecRoundTrip(t *testing.T) {
	if n := testing.AllocsPerRun(1000, commitRoundTrip(t)); n > 0 {
		t.Fatalf("codec round trip allocates %.0f/op, budget 0", n)
	}
}

func TestAllocBudgetCodecRoundTripLargest(t *testing.T) {
	op, _ := largestRoundTrip(t)
	if n := testing.AllocsPerRun(1000, op); n > 0 {
		t.Fatalf("largest codec round trip allocates %.0f/op, budget 0", n)
	}
}

// BenchmarkCodecRoundTrip measures the steady-state hot path: encode into a
// reused buffer, decode into a reused event.
func BenchmarkCodecRoundTrip(b *testing.B) {
	op := commitRoundTrip(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkCodecRoundTripReflective is the pre-refactor baseline the ≥10x
// allocs/op criterion is measured against.
func BenchmarkCodecRoundTripReflective(b *testing.B) {
	src := &InstrCommit{PC: 0x80000000, Instr: 0x13, Flags: CommitRfWen, Wdata: 42}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := binary.Write(&buf, binary.LittleEndian, src); err != nil {
			b.Fatal(err)
		}
		var dst InstrCommit
		if err := binary.Read(bytes.NewReader(buf.Bytes()), binary.LittleEndian, &dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecRoundTripLargest exercises the 1360-byte ArchVecRegState.
func BenchmarkCodecRoundTripLargest(b *testing.B) {
	op, size := largestRoundTrip(b)
	b.ReportAllocs()
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
