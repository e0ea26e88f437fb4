package batch

import (
	"fmt"
	"sort"

	"repro/internal/event"
	"repro/internal/wire"
)

// Fixed-offset packing: the existing scheme the paper compares Batch against
// (Figure 5). Every event kind gets a fixed-size region per cycle, sized for
// the worst-case instance count; invalid entries are padded with bubbles to
// preserve the offsets of subsequent kinds. Evaluation on DiffTest shows
// >60% of such packets are bubbles, costing ~1.67× more communications for
// the same valid events (paper §4.2.1).

// LayoutEntry reserves worst-case space for one event kind per cycle frame.
type LayoutEntry struct {
	Kind event.Kind
	Max  int // maximum instances per cycle
}

// FixedLayout is the static per-cycle frame layout.
type FixedLayout struct {
	Entries   []LayoutEntry
	FrameSize int
	index     map[event.Kind]int
	offsets   []int // frame offset of each entry's region (fixed by layout)
}

// NewFixedLayout builds a layout for the monitored kinds with the given
// worst-case per-commit burst width.
func NewFixedLayout(kinds []event.Kind, burst int) *FixedLayout {
	if len(kinds) == 0 {
		for k := event.Kind(0); k < event.NumKinds; k++ {
			kinds = append(kinds, k)
		}
	}
	sorted := append([]event.Kind(nil), kinds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	l := &FixedLayout{index: make(map[event.Kind]int)}
	for _, k := range sorted {
		max := 1
		switch k {
		case event.KindInstrCommit, event.KindLoad, event.KindStore, event.KindAtomic,
			event.KindVecMem, event.KindHLoad, event.KindLrSc, event.KindRefill,
			event.KindCMO, event.KindL1TLB, event.KindL2TLB, event.KindSbuffer,
			event.KindVecCommit, event.KindVecWriteback, event.KindVstartUpdate,
			event.KindRedirect:
			max = burst
		default:
			// State snapshots and traps: at most one slot per frame.
		}
		l.index[k] = len(l.Entries)
		l.Entries = append(l.Entries, LayoutEntry{Kind: k, Max: max})
		l.offsets = append(l.offsets, l.FrameSize)
		// 1 count byte + max × (1 slot byte + payload).
		l.FrameSize += 1 + max*(1+event.SizeOf(k))
	}
	return l
}

// FixedPacker packs cycle frames with fixed offsets into fixed-size packets.
type FixedPacker struct {
	Layout      *FixedLayout
	PacketBytes int

	stream []byte // frame bytes not yet emitted as packets

	frame  []byte // per-cycle frame scratch, reused across AddCycle calls
	counts []int  // per-entry instance counts, reused across AddCycle calls

	// Stats.
	Frames     uint64
	ValidBytes uint64
	TotalBytes uint64
	Packets    uint64

	pendEvents int
	pendInstrs int
}

// NewFixedPacker returns a fixed-offset packer.
func NewFixedPacker(layout *FixedLayout, packetBytes int) *FixedPacker {
	return &FixedPacker{Layout: layout, PacketBytes: packetBytes}
}

// AddCycle lays one cycle's items into a fixed-offset frame and returns any
// full packets. A rejected cycle returns no packets and leaves the stream
// as it was.
func (f *FixedPacker) AddCycle(items []wire.Item) ([]Packet, error) {
	if len(items) == 0 {
		return nil, nil
	}
	if f.frame == nil {
		f.frame = make([]byte, f.Layout.FrameSize)
		f.counts = make([]int, len(f.Layout.Entries))
	}
	frame, counts, offsets := f.frame, f.counts, f.Layout.offsets
	clear(frame) // bubbles must read as zero padding even on a reused frame
	clear(counts)

	events, instrs, valid := 0, 0, 0
	for _, it := range items {
		k, ok := it.Kind()
		if !ok || it.Type >= wire.TypeNDEBase {
			return nil, fmt.Errorf("batch: fixed-offset packing supports raw events only (type %d)", it.Type)
		}
		idx, ok := f.Layout.index[k]
		if !ok {
			return nil, fmt.Errorf("batch: kind %v not in fixed layout", k)
		}
		e := f.Layout.Entries[idx]
		n := counts[idx]
		if n >= e.Max {
			return nil, fmt.Errorf("batch: cycle exceeds fixed layout capacity for %v (%d)", k, e.Max)
		}
		slotOff := offsets[idx] + 1 + n*(1+event.SizeOf(k))
		frame[slotOff] = it.Slot
		copy(frame[slotOff+1:], it.Payload)
		counts[idx] = n + 1
		events++
		instrs += it.InstrCount()
		valid += it.WireSize()
	}
	for i := range counts {
		frame[offsets[i]] = byte(counts[i])
	}

	f.Frames++
	f.ValidBytes += uint64(valid)
	f.TotalBytes += uint64(len(frame))
	f.pendEvents += events
	f.pendInstrs += instrs
	f.stream = append(f.stream, frame...)
	return f.drain(false), nil
}

// Flush emits the remaining partial packet.
func (f *FixedPacker) Flush() []Packet {
	return f.drain(true)
}

func (f *FixedPacker) drain(all bool) []Packet {
	var out []Packet
	for len(f.stream) >= f.PacketBytes || (all && len(f.stream) > 0) {
		n := f.PacketBytes
		if n > len(f.stream) {
			n = len(f.stream)
		}
		buf := event.GetBuf(f.PacketBytes)[:f.PacketBytes]
		copy(buf, f.stream[:n])
		clear(buf[n:]) // pooled buffer: pad a short final packet with zeros
		// Compact instead of re-slicing so the stream's backing array is
		// reused rather than leaked behind an advancing slice base.
		f.stream = f.stream[:copy(f.stream, f.stream[n:])]
		// Attribute pending event/instr counts to the packet that completes
		// the stream flow; apportioning exactly is unnecessary for cost
		// accounting because every packet costs the same to transmit.
		pkt := Packet{Buf: buf, Used: n, Events: f.pendEvents, Instrs: f.pendInstrs}
		f.pendEvents, f.pendInstrs = 0, 0
		f.Packets++
		out = append(out, pkt)
	}
	return out
}

// BubbleRatio reports the fraction of frame bytes that are padding — the
// paper measures >60% for fixed-offset packing on DiffTest.
func (f *FixedPacker) BubbleRatio() float64 {
	if f.TotalBytes == 0 {
		return 0
	}
	return 1 - float64(f.ValidBytes)/float64(f.TotalBytes)
}

// UnpackFixedStream parses a contiguous stream of fixed-offset frames,
// returning the valid items per frame in restored checking order. It is the
// software-side counterpart of FixedPacker for the ablation benchmarks.
func UnpackFixedStream(layout *FixedLayout, stream []byte) ([][]wire.Item, error) {
	var frames [][]wire.Item
	for len(stream) >= layout.FrameSize {
		frame := stream[:layout.FrameSize]
		stream = stream[layout.FrameSize:]
		// Counting pass sizes the frame's item slice and payload arena so the
		// valid items cost two allocations per frame instead of one each.
		nItems, nBytes := 0, 0
		for ei, e := range layout.Entries {
			count := int(frame[layout.offsets[ei]])
			if count > e.Max {
				count = e.Max
			}
			nItems += count
			nBytes += count * event.SizeOf(e.Kind)
		}
		items := make([]wire.Item, 0, nItems)
		arena := make([]byte, 0, nBytes)
		for ei, e := range layout.Entries {
			off := layout.offsets[ei]
			count := int(frame[off])
			if count > e.Max {
				count = e.Max
			}
			off++
			size := event.SizeOf(e.Kind)
			for i := 0; i < count; i++ {
				slotOff := off + i*(1+size)
				start := len(arena)
				arena = append(arena, frame[slotOff+1:slotOff+1+size]...)
				items = append(items, wire.Item{
					Type: uint8(e.Kind), Core: 0, Slot: frame[slotOff],
					Payload: arena[start:len(arena):len(arena)],
				})
			}
		}
		sort.SliceStable(items, func(i, j int) bool { return items[i].SortKey() < items[j].SortKey() })
		frames = append(frames, items)
	}
	return frames, nil
}
