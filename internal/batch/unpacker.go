package batch

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/event"
	"repro/internal/wire"
)

// Unpacker performs meta-guided dynamic unpacking (paper §4.2.2): it reads
// each packet's metadata table, computes segment offsets as running length
// sums, reconstructs items with their per-kind structure, and restores the
// per-core checking order within each cycle group.
//
// Because transmission-level packing may split a cycle across packets, the
// unpacker holds the most recent cycle group until a newer cycle tag (or
// Flush) proves it complete.
//
// The item slice AddPacket and Flush return is the unpacker's own and is
// valid until the next AddPacket or Flush; the payloads it points at are not
// reused and stay valid for as long as the caller holds them.
type Unpacker struct {
	pending   []wire.Item
	pendingID uint8
	havePend  bool
	out       []wire.Item // the returned slice, reused call to call

	// Stats.
	Items   uint64
	Packets uint64
}

// AddPacket parses one packet and returns all items of cycles that are now
// complete, in restored checking order. The returned slice is valid until
// the next AddPacket or Flush.
//
// Item payloads are copied out of buf into one arena allocation per packet,
// so the caller may release or reuse buf (batch.Packet.Release) as soon as
// AddPacket returns. Failed parses are reported with the packet index and
// segment/item position, wrapping the codec's typed *event.DecodeError where
// an event payload is at fault.
func (u *Unpacker) AddPacket(buf []byte) ([]wire.Item, error) {
	pktIdx := u.Packets
	u.Packets++
	if len(buf) < packetHeader {
		return nil, fmt.Errorf("batch: packet %d shorter than header", pktIdx)
	}
	segCount := int(binary.LittleEndian.Uint16(buf[0:]))
	pos := int(binary.LittleEndian.Uint16(buf[2:]))
	if packetHeader+segCount*metaSize > len(buf) || pos > len(buf) {
		return nil, fmt.Errorf("batch: packet %d: corrupt header (%d segments)", pktIdx, segCount)
	}

	// Size the payload arena: each item spends one slot byte of its segment,
	// the rest of the segment bytes are payload.
	total := 0
	for s := 0; s < segCount; s++ {
		m := buf[packetHeader+s*metaSize:]
		if n := int(binary.LittleEndian.Uint16(m[6:])) - int(binary.LittleEndian.Uint16(m[4:])); n > 0 {
			total += n
		}
	}
	if total > len(buf) {
		total = len(buf) // corrupt meta cannot demand more than the packet holds
	}
	arena := make([]byte, 0, total)

	u.out = u.out[:0]
	for s := 0; s < segCount; s++ {
		m := buf[packetHeader+s*metaSize:]
		typ, core, cycle := m[0], m[1], m[2]
		count := int(binary.LittleEndian.Uint16(m[4:]))
		segBytes := int(binary.LittleEndian.Uint16(m[6:]))
		if pos+segBytes > len(buf) {
			return nil, fmt.Errorf("batch: packet %d segment %d overruns packet", pktIdx, s)
		}

		if !u.havePend || cycle != u.pendingID {
			u.release()
			u.pendingID, u.havePend = cycle, true
		}

		seg := buf[pos : pos+segBytes]
		var err error
		arena, err = u.parseSegment(typ, core, count, seg, arena)
		if err != nil {
			return nil, fmt.Errorf("batch: packet %d segment %d: %w", pktIdx, s, err)
		}
		pos += segBytes
	}
	return u.out, nil
}

// Flush releases the final pending cycle group. The returned slice is valid
// until the next AddPacket or Flush.
func (u *Unpacker) Flush() []wire.Item {
	u.out = u.out[:0]
	u.release()
	return u.out
}

// release appends the pending cycle group to u.out in restored checking
// order.
func (u *Unpacker) release() {
	slices.SortStableFunc(u.pending, func(a, b wire.Item) int { return cmp.Compare(a.SortKey(), b.SortKey()) })
	u.out = append(u.out, u.pending...)
	u.Items += uint64(len(u.pending))
	clear(u.pending) // drop the payload references before the slots are reused
	u.pending = u.pending[:0]
}

// parseSegment slices a segment payload into items using the per-kind
// structural metadata: fixed sizes for raw/NDE/fused items, mask-derived
// lengths for diff items. Parsed items go to u.pending; payload bytes are
// copied into arena (capacity-clamped sub-slices) and the grown arena is
// returned. Truncated event payloads surface as typed *event.DecodeError.
func (u *Unpacker) parseSegment(typ, core uint8, count int, seg, arena []byte) ([]byte, error) {
	itemKind := func() (event.Kind, bool) {
		return wire.Item{Type: typ}.Kind()
	}
	pos := 0
	for i := 0; i < count; i++ {
		if pos >= len(seg) {
			err := error(fmt.Errorf("segment truncated"))
			if k, ok := itemKind(); ok {
				err = &event.DecodeError{Kind: k, Len: 0, Err: event.ErrShortPayload}
			}
			return arena, fmt.Errorf("item %d/%d: %w", i, count, err)
		}
		slot := seg[pos]
		pos++
		var n int
		switch {
		case typ < wire.TypeNDEBase:
			n = event.SizeOf(event.Kind(typ))
		case typ < wire.TypeFused:
			n = 8 + event.SizeOf(event.Kind(typ-wire.TypeNDEBase))
		case typ == wire.TypeFused:
			n = wire.FusedPayloadSize
		case typ == wire.TypeDigest:
			n = 16
		case typ >= wire.TypeDiffBase && typ < wire.TypeInvalid:
			var err error
			n, err = wire.ParseDiffLen(event.Kind(typ-wire.TypeDiffBase), seg[pos:])
			if err != nil {
				return arena, fmt.Errorf("item %d/%d: %w", i, count, err)
			}
		default:
			return arena, fmt.Errorf("item %d/%d: unknown item type %d", i, count, typ)
		}
		if pos+n > len(seg) {
			err := error(fmt.Errorf("type %d payload overruns segment", typ))
			if k, ok := itemKind(); ok {
				err = &event.DecodeError{Kind: k, Len: len(seg) - pos, Err: event.ErrShortPayload}
			}
			return arena, fmt.Errorf("item %d/%d: %w", i, count, err)
		}
		start := len(arena)
		arena = append(arena, seg[pos:pos+n]...)
		u.pending = append(u.pending, wire.Item{
			Type: typ, Core: core, Slot: slot,
			Payload: arena[start:len(arena):len(arena)],
		})
		pos += n
	}
	if pos != len(seg) {
		return arena, fmt.Errorf("%d trailing segment bytes", len(seg)-pos)
	}
	return arena, nil
}
