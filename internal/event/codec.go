package event

//go:generate go run ./gen

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// WireCodec is the zero-allocation serialization contract every event kind
// implements. The per-kind implementations are hand-rolled little-endian
// encoders emitted by `go generate ./...` (see gen/ and codec_gen.go); they
// produce byte-for-byte the same layout as the reflective
// encoding/binary.Write path the registry cross-checks at init.
type WireCodec interface {
	// EncodedSize returns the fixed wire size in bytes.
	EncodedSize() int
	// AppendTo appends the wire encoding to dst and returns the extended
	// slice. It never allocates when dst has sufficient capacity.
	AppendTo(dst []byte) []byte
	// DecodeFrom fills the receiver from the prefix of src, returning the
	// number of bytes consumed. src may be longer than the wire size.
	DecodeFrom(src []byte) (int, error)
}

// Decode error causes, wrapped by DecodeError.
var (
	// ErrUnknownKind marks a kind outside the registered type space.
	ErrUnknownKind = errors.New("unknown event kind")
	// ErrShortPayload marks a payload shorter than the kind's wire size.
	ErrShortPayload = errors.New("payload shorter than wire size")
	// ErrPayloadSize marks a payload whose length does not equal the kind's
	// wire size exactly (Decode requires an exact-size slice).
	ErrPayloadSize = errors.New("payload length does not match wire size")
)

// DecodeError is the typed error every failed decode returns: it names the
// event kind, records the offending payload length, and wraps the structural
// cause so callers can errors.Is/As against it.
type DecodeError struct {
	Kind Kind
	Len  int // payload length that was offered
	Err  error
}

// Error implements error.
func (e *DecodeError) Error() string {
	want := 0
	if e.Kind < NumKinds {
		want = infos[e.Kind].Size
	}
	return fmt.Sprintf("event: decode %v: payload %dB (want %dB): %v", e.Kind, e.Len, want, e.Err)
}

// Unwrap exposes the structural cause.
func (e *DecodeError) Unwrap() error { return e.Err }

// decodeErr builds the typed decode error; the generated DecodeFrom methods
// call it on short input.
func decodeErr(k Kind, n int, cause error) error {
	return &DecodeError{Kind: k, Len: n, Err: cause}
}

// codecGrow extends dst by n bytes and returns the extended slice plus the
// writable window covering the new bytes. When dst has capacity the window
// is carved in place; the append(dst, make(...)...) grow form is recognized
// by the compiler and does not allocate a temporary.
func codecGrow(dst []byte, n int) ([]byte, []byte) {
	l := len(dst)
	if cap(dst)-l < n {
		dst = append(dst, make([]byte, n)...)
	} else {
		dst = dst[:l+n]
	}
	return dst, dst[l : l+n]
}

// Info describes one event kind's structural semantics: its name, Table-1
// category, fixed wire size, and constructor. This is the metadata the Batch
// parser uses to reconstruct events from tightly packed payloads.
type Info struct {
	Kind     Kind
	Name     string
	Category Category
	Size     int
	New      func() Event
}

var infos [NumKinds]Info

func register(k Kind, newFn func() Event) {
	ev := newFn()
	// The reflective layout is the authority the generated codecs must
	// match; a disagreement means codec_gen.go is stale.
	size := binary.Size(ev)
	if size <= 0 {
		panic(fmt.Sprintf("event: kind %v has no fixed binary size", k))
	}
	if g := ev.EncodedSize(); g != size {
		panic(fmt.Sprintf("event: generated codec for %v says %dB but the field layout is %dB — rerun go generate ./...", k, g, size))
	}
	infos[k] = Info{Kind: k, Name: k.String(), Category: CategoryOf(k), Size: size, New: newFn}
}

func init() {
	register(KindInstrCommit, func() Event { return new(InstrCommit) })
	register(KindTrap, func() Event { return new(Trap) })
	register(KindException, func() Event { return new(Exception) })
	register(KindInterrupt, func() Event { return new(Interrupt) })
	register(KindRedirect, func() Event { return new(Redirect) })
	register(KindArchIntRegState, func() Event { return new(ArchIntRegState) })
	register(KindArchFpRegState, func() Event { return new(ArchFpRegState) })
	register(KindCSRState, func() Event { return new(CSRState) })
	register(KindArchVecRegState, func() Event { return new(ArchVecRegState) })
	register(KindVecCSRState, func() Event { return new(VecCSRState) })
	register(KindFpCSRState, func() Event { return new(FpCSRState) })
	register(KindHCSRState, func() Event { return new(HCSRState) })
	register(KindDebugCSRState, func() Event { return new(DebugCSRState) })
	register(KindTriggerCSRState, func() Event { return new(TriggerCSRState) })
	register(KindLoad, func() Event { return new(Load) })
	register(KindStore, func() Event { return new(Store) })
	register(KindAtomic, func() Event { return new(Atomic) })
	register(KindSbuffer, func() Event { return new(Sbuffer) })
	register(KindL1TLB, func() Event { return new(L1TLB) })
	register(KindL2TLB, func() Event { return new(L2TLB) })
	register(KindRefill, func() Event { return new(Refill) })
	register(KindLrSc, func() Event { return new(LrSc) })
	register(KindCMO, func() Event { return new(CMO) })
	register(KindVecCommit, func() Event { return new(VecCommit) })
	register(KindVecWriteback, func() Event { return new(VecWriteback) })
	register(KindVecMem, func() Event { return new(VecMem) })
	register(KindHTrap, func() Event { return new(HTrap) })
	register(KindGuestPageFault, func() Event { return new(GuestPageFault) })
	register(KindVstartUpdate, func() Event { return new(VstartUpdate) })
	register(KindHLoad, func() Event { return new(HLoad) })
	register(KindVirtualInterrupt, func() Event { return new(VirtualInterrupt) })
	register(KindVecExceptionTrack, func() Event { return new(VecExceptionTrack) })
}

// InfoOf returns the structural metadata for kind k.
func InfoOf(k Kind) Info { return infos[k] }

// SizeOf returns the fixed wire size in bytes of kind k.
func SizeOf(k Kind) int { return infos[k].Size }

// TotalSize returns the aggregated size of one instance of every event kind,
// the figure the paper reports as the total interface width (§2.2).
func TotalSize() int {
	n := 0
	for _, in := range infos {
		n += in.Size
	}
	return n
}

// Encode appends ev's wire encoding to dst and returns the extended slice.
// It allocates only when dst lacks capacity.
func Encode(dst []byte, ev Event) []byte { return ev.AppendTo(dst) }

// EncodeValue returns ev's wire encoding as a fresh exact-size slice.
func EncodeValue(ev Event) []byte {
	return ev.AppendTo(make([]byte, 0, ev.EncodedSize()))
}

// Decode reconstructs an event of kind k from its wire encoding. The data
// slice must be exactly SizeOf(k) bytes. All failures are *DecodeError.
func Decode(k Kind, data []byte) (Event, error) {
	if k >= NumKinds {
		return nil, decodeErr(k, len(data), ErrUnknownKind)
	}
	if len(data) != infos[k].Size {
		return nil, decodeErr(k, len(data), ErrPayloadSize)
	}
	ev := infos[k].New()
	if _, err := ev.DecodeFrom(data); err != nil {
		return nil, err
	}
	return ev, nil
}

// Record is one verification event as the monitor emits it: its kind and
// wire encoding, stamped with its core and order tag — the global
// instruction commit sequence number after which it must be checked. The
// tag is the order semantics Squash exploits to decouple transmission order
// from checking order (paper §4.3).
//
// Data is a view, not an owned copy. A record the DUT emits aliases the
// monitor's per-cycle arena and is valid until the next StepCycle; whoever
// keeps one longer copies it (see DESIGN.md "The monitor emits bytes").
type Record struct {
	Seq  uint64
	Core uint8
	Kind Kind
	Data []byte
}

// RecordOf encodes ev into a record that owns its bytes.
func RecordOf(seq uint64, core uint8, ev Event) Record {
	return Record{Seq: seq, Core: core, Kind: ev.Kind(), Data: EncodeValue(ev)}
}

// Clone returns a copy of r that owns its bytes.
func (r Record) Clone() Record {
	r.Data = append([]byte(nil), r.Data...)
	return r
}

// Event decodes the record into a fresh typed event.
func (r Record) Event() (Event, error) { return Decode(r.Kind, r.Data) }

// String renders a record for debug reports.
func (r Record) String() string {
	ev, err := r.Event()
	if err != nil {
		return fmt.Sprintf("c%d@%d %v<%v>", r.Core, r.Seq, r.Kind, err)
	}
	return fmt.Sprintf("c%d@%d %v%+v", r.Core, r.Seq, r.Kind, ev)
}

// Arena is a reusable run of records whose encodings share one buffer: the
// DUT monitor's per-cycle output and the checker's derived-event scratch.
// Records in Recs alias Buf and are valid until the next Reset.
type Arena struct {
	Buf  []byte
	Recs []Record
}

// Reset empties the arena, keeping its storage.
func (a *Arena) Reset() {
	a.Buf, a.Recs = a.Buf[:0], a.Recs[:0]
}

// Push adopts enc — a.Buf extended by one encoding of kind k, as an AppendTo
// or Append* encoder returns it — as the next record.
func (a *Arena) Push(seq uint64, core uint8, k Kind, enc []byte) {
	start := len(a.Buf)
	a.Buf = enc
	a.Recs = append(a.Recs, Record{Seq: seq, Core: core, Kind: k, Data: enc[start:len(enc):len(enc)]})
}
