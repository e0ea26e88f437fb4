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

// AppendNDE appends an NDE item payload — the order tag, then the event
// encoding enc — to dst.
func AppendNDE(dst []byte, tag uint64, enc []byte) []byte {
	return append(binary.LittleEndian.AppendUint64(dst, tag), enc...)
}

// SplitNDE returns an NDE item's order tag and event encoding, which aliases
// the payload. The encoding is checked to be exactly the kind's wire size.
func SplitNDE(it Item) (tag uint64, enc []byte, err error) {
	if !it.IsNDE() {
		return 0, nil, fmt.Errorf("wire: item type %d is not an NDE", it.Type)
	}
	if len(it.Payload) < 8 {
		return 0, nil, fmt.Errorf("wire: short NDE payload")
	}
	k, _ := it.Kind()
	enc = it.Payload[8:]
	if len(enc) != event.SizeOf(k) {
		return 0, nil, &event.DecodeError{Kind: k, Len: len(enc), Err: event.ErrPayloadSize}
	}
	return binary.LittleEndian.Uint64(it.Payload), enc, nil
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
	return Item{Type: TypeFused, Core: core, Slot: slot, Payload: AppendFused(make([]byte, 0, FusedPayloadSize), fc)}
}

// AppendFused appends the FusedPayloadSize-byte encoding of fc to dst.
func AppendFused(dst []byte, fc FusedCommit) []byte {
	for _, v := range [...]uint64{fc.LastSeq, fc.Count, fc.LastPC, fc.PCDigest, fc.WDigest, fc.StartToken} {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	return dst
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
	return Item{Type: TypeDigest, Core: core, Slot: slot, Payload: AppendDigest(make([]byte, 0, 16), count, sum)}
}

// AppendDigest appends the 16-byte digest item payload to dst.
func AppendDigest(dst []byte, count uint32, sum uint64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, count)
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	return binary.LittleEndian.AppendUint64(dst, sum)
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

// FromRecords converts one cycle's monitor records into wire items (see
// AppendItems).
func FromRecords(cycle []event.Record) []Item {
	return AppendItems(make([]Item, 0, len(cycle)), cycle)
}

// AppendItems appends one cycle's monitor records to dst as raw wire items,
// assigning per-core commit slots. Events before a core's first commit of
// the cycle get slot 0; events belonging to the i-th commit get slot i.
//
// Each item's payload is its record's encoding, not a copy: the items are
// valid exactly as long as the records are.
func AppendItems(dst []Item, cycle []event.Record) []Item {
	var slots [256]uint8
	for _, rec := range cycle {
		if rec.Kind == event.KindInstrCommit {
			slots[rec.Core]++
		}
		dst = append(dst, Item{
			Type:    TypeRawBase + uint8(rec.Kind),
			Core:    rec.Core,
			Slot:    slots[rec.Core],
			Payload: rec.Data,
		})
	}
	return dst
}

// ToRecord converts a raw item into a checker-consumable record whose
// encoding is the item's payload. Sequence numbers are not carried by raw
// items (the checker reconstructs order positionally); NDE items carry
// explicit tags.
func ToRecord(it Item) (event.Record, error) {
	if it.Type >= TypeNDEBase {
		return event.Record{}, fmt.Errorf("wire: item type %d is not raw", it.Type)
	}
	k := event.Kind(it.Type)
	if len(it.Payload) != event.SizeOf(k) {
		return event.Record{}, &event.DecodeError{Kind: k, Len: len(it.Payload), Err: event.ErrPayloadSize}
	}
	return event.Record{Core: it.Core, Kind: k, Data: it.Payload}, nil
}
