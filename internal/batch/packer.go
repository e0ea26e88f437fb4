// Package batch implements the Batch mechanism (paper §4.2): minimizing
// communication frequency by tightly packing structurally diverse
// verification events into fixed-size transmission packets.
//
// Packing is three-level, mirroring Figure 6 of the paper:
//
//  1. Type-level: same-type events within a cycle are collected into a
//     segment (the hardware analogue is a prefix-counter mux-tree,
//     Figure 7; in software an order-preserving group-by).
//  2. Cycle-level: a cycle's segments are concatenated, each segment's
//     offset being the sum of the preceding segments' lengths.
//  3. Transmission-level: cycle data is appended to fixed-size packets,
//     splitting segments at event boundaries so the residual space of a
//     packet is filled instead of wasted.
//
// Each packet carries a metadata table (event type, core, cycle tag, count,
// byte length per segment) that guides the software parser's dynamic
// unpacking. The package also provides the fixed-offset packing baseline the
// paper compares against (fixed.go), which pads invalid event slots with
// bubbles.
package batch

import (
	"encoding/binary"

	"repro/internal/event"
	"repro/internal/wire"
)

const (
	packetHeader = 4 // segment count (2B) + payload offset (2B)
	metaSize     = 8 // per-segment metadata entry
)

// Packet is one fixed-size transmission unit. Buf comes from the shared
// event buffer pool: the receiver owns it and should call Release once the
// bytes have been consumed (e.g. after Unpacker.AddPacket). Packets that are
// kept alive simply never release.
type Packet struct {
	Buf    []byte // exactly PacketBytes long
	Used   int    // content bytes (header + meta + payloads)
	Events int    // verification events carried
	Instrs int    // retired instructions covered (for software cost)
}

// Release returns the packet's buffer to the pool. The buffer (and any slice
// of it still held elsewhere) must not be used afterwards.
func (p *Packet) Release() {
	if p.Buf != nil {
		event.PutBuf(p.Buf)
		p.Buf = nil
	}
}

// segment is a run of same-type, same-core items from one cycle.
type segment struct {
	typ, core, cycle uint8
	items            []wire.Item
	count            int // grouping pass: items expected in this segment
	bytes            int
}

// openSeg is a segment of the open packet: its metadata, with its items'
// slot and payload bytes copied into Packer.openData.
type openSeg struct {
	typ, core, cycle uint8
	count, bytes     int
}

// Packer assembles wire items into fixed-size packets.
//
// All intermediate state is reused across cycles: grouping scratch, the
// open packet's segment table and byte arena, and (via the event buffer
// pool) the packet buffers themselves. Steady-state packing allocates only
// when a packet closes.
type Packer struct {
	PacketBytes int

	cycleTag uint8
	open     []openSeg
	openUsed int

	// openData holds the open packet's item bytes — slot, then payload, in
	// segment order — copied in by AddCycle: an open packet outlives the
	// call that fed it, and the items' payloads are only valid during it
	// (a DUT cycle's encodings live in the monitor's per-cycle arena).
	openData   []byte
	openEvents int
	openInstrs int

	// gsegs/gitems are groupByType scratch, valid only within one AddCycle.
	gsegs  []segment
	gitems []wire.Item

	// Stats.
	Packets      uint64
	ContentBytes uint64
	ItemCount    uint64
}

// MinPacketBytes is the smallest usable packet: it must hold the largest
// single wire item (an order-tagged ArchVecRegState) plus framing.
var MinPacketBytes = packetHeader + metaSize + 1 + 8 + maxEventSize()

func maxEventSize() int {
	max := 0
	for k := event.Kind(0); k < event.NumKinds; k++ {
		if s := event.SizeOf(k); s > max {
			max = s
		}
	}
	return max
}

// NewPacker returns a packer emitting packets of the given size, clamped up
// to MinPacketBytes so every item fits in an empty packet.
func NewPacker(packetBytes int) *Packer {
	if packetBytes < MinPacketBytes {
		packetBytes = MinPacketBytes
	}
	return &Packer{PacketBytes: packetBytes, openUsed: packetHeader}
}

// AddCycle performs type- and cycle-level packing of one cycle's items and
// appends them to the open packet, returning any packets that filled up.
func (p *Packer) AddCycle(items []wire.Item) []Packet {
	if len(items) == 0 {
		return nil
	}
	p.cycleTag++
	segs := p.groupByType(items, p.cycleTag)

	var out []Packet
	for _, seg := range segs {
		out = append(out, p.appendSegment(seg)...)
	}
	return out
}

// groupByType collects same-(type,core) items into segments in first-seen
// order — the software analogue of the prefix-counter mux-tree (Fig. 7).
//
// It reuses the packer's scratch: a counting pass sizes contiguous windows
// of p.gitems per segment, a placement pass fills them. A cycle holds few
// distinct (type,core) pairs, so the linear key scan beats a map.
func (p *Packer) groupByType(items []wire.Item, cycle uint8) []segment {
	segs := p.gsegs[:0]
	find := func(typ, core uint8) int {
		for i := range segs {
			if segs[i].typ == typ && segs[i].core == core {
				return i
			}
		}
		segs = append(segs, segment{typ: typ, core: core, cycle: cycle})
		return len(segs) - 1
	}
	for _, it := range items {
		s := &segs[find(it.Type, it.Core)]
		s.count++
		s.bytes += it.WireSize()
	}

	if cap(p.gitems) < len(items) {
		p.gitems = make([]wire.Item, len(items))
	}
	arena, start := p.gitems[:len(items)], 0
	for i := range segs {
		segs[i].items = arena[start : start : start+segs[i].count]
		start += segs[i].count
	}
	for _, it := range items {
		i := find(it.Type, it.Core)
		segs[i].items = append(segs[i].items, it)
	}
	p.gsegs = segs
	return segs
}

// appendSegment performs transmission-level packing: the segment fills the
// open packet's residual space and splits at item boundaries when needed.
func (p *Packer) appendSegment(seg segment) []Packet {
	var out []Packet
	for len(seg.items) > 0 {
		free := p.PacketBytes - p.openUsed - metaSize*(len(p.open)+1)
		if free < seg.items[0].WireSize() {
			if len(p.open) == 0 {
				// Cannot happen with a clamped packet size; avoid looping.
				panic("batch: item larger than packet")
			}
			// Not even one item fits: close this packet.
			out = append(out, p.closePacket())
			continue
		}
		// Take as many items as fit.
		take, bytes := 0, 0
		for _, it := range seg.items {
			if bytes+it.WireSize() > free {
				break
			}
			bytes += it.WireSize()
			take++
		}
		// Copy the taken run's bytes into the open packet: the items'
		// payloads need not outlive this AddCycle, the open packet may.
		for _, it := range seg.items[:take] {
			p.openData = append(append(p.openData, it.Slot), it.Payload...)
			p.openInstrs += it.InstrCount()
		}
		p.openEvents += take
		p.open = append(p.open, openSeg{typ: seg.typ, core: seg.core, cycle: seg.cycle, count: take, bytes: bytes})
		p.openUsed += bytes
		seg.items = seg.items[take:]
		seg.bytes -= bytes
	}
	return out
}

// Flush closes the open packet, if any.
func (p *Packer) Flush() []Packet {
	if len(p.open) == 0 {
		return nil
	}
	return []Packet{p.closePacket()}
}

func (p *Packer) closePacket() Packet {
	// Pooled buffers carry stale bytes: every position a fresh make() would
	// zero is cleared explicitly so packets stay byte-identical either way.
	buf := event.GetBuf(p.PacketBytes)[:p.PacketBytes]
	binary.LittleEndian.PutUint16(buf[0:], uint16(len(p.open)))
	payloadOff := packetHeader + metaSize*len(p.open)
	binary.LittleEndian.PutUint16(buf[2:], uint16(payloadOff))

	pkt := Packet{Buf: buf, Events: p.openEvents, Instrs: p.openInstrs}
	for i, seg := range p.open {
		m := buf[packetHeader+i*metaSize:]
		m[0], m[1], m[2], m[3] = seg.typ, seg.core, seg.cycle, 0
		binary.LittleEndian.PutUint16(m[4:], uint16(seg.count))
		binary.LittleEndian.PutUint16(m[6:], uint16(seg.bytes))
		p.ItemCount += uint64(seg.count)
	}
	pos := payloadOff + copy(buf[payloadOff:], p.openData)
	clear(buf[pos:])
	pkt.Used = pos
	p.ContentBytes += uint64(pos)
	p.Packets++
	p.open = p.open[:0]
	p.openData = p.openData[:0]
	p.openEvents, p.openInstrs = 0, 0
	p.openUsed = packetHeader
	return pkt
}

// Utilization reports the mean fraction of packet space carrying content —
// the Batch packet-utilization performance counter (paper §5).
func (p *Packer) Utilization() float64 {
	if p.Packets == 0 {
		return 0
	}
	return float64(p.ContentBytes) / float64(p.Packets*uint64(p.PacketBytes))
}
