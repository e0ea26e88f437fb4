// Package wire defines the on-the-wire item model shared by the baseline
// per-event transport, the Batch packer, and the Squash fusion unit.
//
// A wire item is one unit of verification traffic: a raw event, an
// order-tagged NDE (transmitted ahead of fused traffic, paper §4.3), a fused
// instruction-commit summary, or a differenced state event. Items carry a
// commit-slot byte so the software side can restore the exact per-core
// checking order after type-level packing regroups a cycle's events
// (paper §4.2: dynamic unpacking with structural metadata).
package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/event"
)

// Item type space.
const (
	// TypeRawBase+kind: a plain event; payload is the event encoding.
	TypeRawBase uint8 = 0
	// TypeNDEBase+kind: an order-tagged NDE; payload is an 8-byte sequence
	// tag followed by the event encoding.
	TypeNDEBase uint8 = 32
	// TypeFused: a fused instruction-commit summary (FusedCommit payload).
	TypeFused uint8 = 64
	// TypeDigest: a fusion-window digest over derivable events
	// (derive.Digest payload).
	TypeDigest uint8 = 65
	// TypeDiffBase+kind: a differenced state event; payload is an 8-byte
	// order tag, a changed-word bitmask, and only the changed 64-bit words.
	TypeDiffBase uint8 = 80
	// TypeInvalid marks the end of the usable type space.
	TypeInvalid uint8 = 120
)

// Item is one unit of verification traffic.
type Item struct {
	Type    uint8
	Core    uint8
	Slot    uint8 // commit index within the cycle (0 = before any commit)
	Payload []byte
}

// WireSize returns the item's payload-region footprint in a packet: the
// slot byte plus the payload.
func (it Item) WireSize() int { return 1 + len(it.Payload) }

// BaselineWireSize returns the item's cost as an individual (unpacked)
// transfer: a 4-byte header plus the payload.
func (it Item) BaselineWireSize() int { return 4 + len(it.Payload) }

// Kind returns the event kind encoded by a raw, NDE, or diff item.
func (it Item) Kind() (event.Kind, bool) {
	switch {
	case it.Type < TypeNDEBase:
		return event.Kind(it.Type), true
	case it.Type >= TypeNDEBase && it.Type < TypeFused:
		return event.Kind(it.Type - TypeNDEBase), true
	case it.Type >= TypeDiffBase && it.Type < TypeInvalid:
		return event.Kind(it.Type - TypeDiffBase), true
	}
	return 0, false
}

// IsFused reports whether the item is a fused commit summary.
func (it Item) IsFused() bool { return it.Type == TypeFused }

// IsNDE reports whether the item is an order-tagged NDE.
func (it Item) IsNDE() bool { return it.Type >= TypeNDEBase && it.Type < TypeFused }

// InstrCount returns how many retired instructions the item covers (for
// software-cost accounting): 1 for commits, Count for fused commits.
func (it Item) InstrCount() int {
	if it.Type == TypeFused {
		fc, err := DecodeFused(it)
		if err != nil {
			return 0
		}
		return int(fc.Count)
	}
	if k, ok := it.Kind(); ok && k == event.KindInstrCommit {
		return 1
	}
	return 0
}

// RawItem wraps an event as a plain wire item.
func RawItem(core, slot uint8, ev event.Event) Item {
	return Item{
		Type:    TypeRawBase + uint8(ev.Kind()),
		Core:    core,
		Slot:    slot,
		Payload: event.EncodeValue(ev),
	}
}

// NDEItem wraps an event with its order tag for ahead-of-fusion transmission.
func NDEItem(core, slot uint8, seq uint64, ev event.Event) Item {
	p := make([]byte, 8, 8+ev.EncodedSize())
	binary.LittleEndian.PutUint64(p, seq)
	return Item{
		Type:    TypeNDEBase + uint8(ev.Kind()),
		Core:    core,
		Slot:    slot,
		Payload: ev.AppendTo(p),
	}
}

// DecodeRaw reconstructs a raw item's event.
func DecodeRaw(it Item) (event.Event, error) {
	k, ok := it.Kind()
	if !ok || it.Type >= TypeNDEBase {
		return nil, fmt.Errorf("wire: item type %d is not raw", it.Type)
	}
	return event.Decode(k, it.Payload)
}

// DecodeNDE decodes an NDE item's event into dst, which must be a value of
// the item's kind, and returns the item's order tag. It allocates nothing:
// the caller owns dst and may reuse it once done with the event.
func DecodeNDE(it Item, dst event.Event) (seq uint64, err error) {
	if !it.IsNDE() {
		return 0, fmt.Errorf("wire: item type %d is not an NDE", it.Type)
	}
	if len(it.Payload) < 8 {
		return 0, fmt.Errorf("wire: short NDE payload")
	}
	k, _ := it.Kind()
	return binary.LittleEndian.Uint64(it.Payload), decodeInto(k, it.Payload[8:], dst)
}

// decodeInto is event.Decode into a caller-owned value: data must be
// exactly the wire size of k, and dst of kind k.
func decodeInto(k event.Kind, data []byte, dst event.Event) error {
	if dst.Kind() != k {
		return fmt.Errorf("wire: decoding %v into a %v", k, dst.Kind())
	}
	if len(data) != event.SizeOf(k) {
		return &event.DecodeError{Kind: k, Len: len(data), Err: event.ErrPayloadSize}
	}
	_, err := dst.DecodeFrom(data)
	return err
}

// FusedCommit summarizes a fused run of instruction commits (paper §4.3):
// the sequence number and PC of the final fused instruction, the fused
// count, and an XOR digest of the committed PCs as the collective check
// value. The checker steps the reference model to LastSeq, applying
// order-tagged NDEs at their exact positions along the way.
type FusedCommit struct {
	LastSeq  uint64 // sequence number of the final fused instruction
	Count    uint64 // number of fused (non-skipped) commits
	LastPC   uint64 // PC of the final fused instruction
	PCDigest uint64 // XOR of all fused commit PCs
	WDigest  uint64 // XOR of all fused commit writeback values

	// StartToken is the replay-buffer token of the first event buffered for
	// this fusion window — Replay's range-determination handle (paper §4.4).
	StartToken uint64
}

// FusedPayloadSize is the wire size of a FusedCommit payload.
const FusedPayloadSize = 48

// FusedItem encodes a fused commit summary.
func FusedItem(core, slot uint8, fc FusedCommit) Item {
	p := make([]byte, FusedPayloadSize)
	binary.LittleEndian.PutUint64(p[0:], fc.LastSeq)
	binary.LittleEndian.PutUint64(p[8:], fc.Count)
	binary.LittleEndian.PutUint64(p[16:], fc.LastPC)
	binary.LittleEndian.PutUint64(p[24:], fc.PCDigest)
	binary.LittleEndian.PutUint64(p[32:], fc.WDigest)
	binary.LittleEndian.PutUint64(p[40:], fc.StartToken)
	return Item{Type: TypeFused, Core: core, Slot: slot, Payload: p}
}

// DecodeFused reconstructs a fused commit summary.
func DecodeFused(it Item) (FusedCommit, error) {
	if it.Type != TypeFused || len(it.Payload) != FusedPayloadSize {
		return FusedCommit{}, fmt.Errorf("wire: bad fused item (type %d, %dB)", it.Type, len(it.Payload))
	}
	return FusedCommit{
		LastSeq:    binary.LittleEndian.Uint64(it.Payload[0:]),
		Count:      binary.LittleEndian.Uint64(it.Payload[8:]),
		LastPC:     binary.LittleEndian.Uint64(it.Payload[16:]),
		PCDigest:   binary.LittleEndian.Uint64(it.Payload[24:]),
		WDigest:    binary.LittleEndian.Uint64(it.Payload[32:]),
		StartToken: binary.LittleEndian.Uint64(it.Payload[40:]),
	}, nil
}

// DigestItem encodes a fusion-window digest: the count and XOR-combined
// hash of the derivable events the window fused away. The checker
// recomputes the digest from reference-model execution and compares.
func DigestItem(core, slot uint8, count uint32, sum uint64) Item {
	p := make([]byte, 16)
	binary.LittleEndian.PutUint32(p[0:], count)
	binary.LittleEndian.PutUint64(p[8:], sum)
	return Item{Type: TypeDigest, Core: core, Slot: slot, Payload: p}
}

// DecodeDigest reconstructs a digest item.
func DecodeDigest(it Item) (count uint32, sum uint64, err error) {
	if it.Type != TypeDigest || len(it.Payload) != 16 {
		return 0, 0, fmt.Errorf("wire: bad digest item (type %d, %dB)", it.Type, len(it.Payload))
	}
	return binary.LittleEndian.Uint32(it.Payload[0:]), binary.LittleEndian.Uint64(it.Payload[8:]), nil
}

// priority orders event kinds within one commit slot, mirroring the monitor's
// emission order so a (slot, priority) sort restores the checking order.
var priority = [event.NumKinds]uint8{
	event.KindVirtualInterrupt: 0, event.KindInterrupt: 1,
	event.KindInstrCommit: 2, event.KindException: 3,
	event.KindGuestPageFault: 4, event.KindHTrap: 5,
	event.KindAtomic: 6, event.KindVecMem: 7, event.KindHLoad: 8,
	event.KindLoad: 9, event.KindStore: 10, event.KindLrSc: 11,
	event.KindVecCommit: 12, event.KindVecWriteback: 13,
	event.KindVstartUpdate: 14, event.KindVecExceptionTrack: 15,
	event.KindRefill: 16, event.KindCMO: 17,
	event.KindL1TLB: 18, event.KindL2TLB: 19, event.KindSbuffer: 20,
	event.KindRedirect: 21, event.KindTrap: 22,
	event.KindArchIntRegState: 23, event.KindCSRState: 24,
	event.KindFpCSRState: 25, event.KindArchFpRegState: 26,
	event.KindVecCSRState: 27, event.KindArchVecRegState: 28,
	event.KindHCSRState: 29, event.KindDebugCSRState: 30,
	event.KindTriggerCSRState: 31,
}

// Priority returns the within-slot checking priority of kind k.
func Priority(k event.Kind) uint8 { return priority[k] }

// SortKey returns the item's full ordering key within a cycle group.
func (it Item) SortKey() uint32 {
	k, ok := it.Kind()
	p := uint8(255)
	if ok {
		p = priority[k]
	} else if it.IsFused() {
		p = priority[event.KindInstrCommit]
	}
	return uint32(it.Core)<<16 | uint32(it.Slot)<<8 | uint32(p)
}

// FromRecords converts one cycle's monitor records into wire items,
// assigning per-core commit slots. Events before a core's first commit of
// the cycle get slot 0; events belonging to the i-th commit get slot i.
//
// All item payloads share one arena allocation sized from EncodedSize, so a
// cycle costs two allocations regardless of event count. Each payload is a
// capacity-clamped sub-slice, so an append on one cannot clobber the next.
func FromRecords(cycle []event.Record) []Item {
	total := 0
	for _, rec := range cycle {
		total += rec.Ev.EncodedSize()
	}
	arena := make([]byte, 0, total)
	items := make([]Item, 0, len(cycle))
	var slots [256]uint8
	for _, rec := range cycle {
		if rec.Ev.Kind() == event.KindInstrCommit {
			slots[rec.Core]++
		}
		start := len(arena)
		arena = rec.Ev.AppendTo(arena)
		items = append(items, Item{
			Type:    TypeRawBase + uint8(rec.Ev.Kind()),
			Core:    rec.Core,
			Slot:    slots[rec.Core],
			Payload: arena[start:len(arena):len(arena)],
		})
	}
	return items
}

// ToRecord converts a raw item back into a checker-consumable record.
// Sequence numbers are not carried by raw items (the checker reconstructs
// order positionally); NDE items carry explicit tags.
func ToRecord(it Item) (event.Record, error) {
	ev, err := DecodeRaw(it)
	if err != nil {
		return event.Record{}, err
	}
	return event.Record{Core: it.Core, Ev: ev}, nil
}
