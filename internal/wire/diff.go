package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/event"
)

// Differencing (paper §4.3, "Differencing"): verification events exhibit
// repetitiveness — e.g. most CSRs are unchanged across long instruction
// sequences. A diff item transmits an 8-byte order tag plus only the 64-bit
// words that changed relative to the previous transmitted instance of the
// same event kind, preceded by a change bitmask. The software side completes
// the event by filling unchanged words from its last-seen copy and compares
// it when the reference model reaches the tagged instruction.

func diffWords(k event.Kind) (nWords, maskWords int) {
	nWords = event.SizeOf(k) / 8
	return nWords, (nWords + 63) / 64
}

// DiffItem encodes ev as a difference against prev (which must be the same
// kind), tagged with the instruction sequence number the snapshot was taken
// at. The result is smaller than a raw item whenever few words changed.
func DiffItem(core, slot uint8, tag uint64, prev, ev event.Event) Item {
	k := ev.Kind()
	if prev == nil || prev.Kind() != k {
		panic("wire: DiffItem base/event kind mismatch")
	}
	oldB := prev.AppendTo(event.GetBuf(prev.EncodedSize()))
	newB := ev.AppendTo(event.GetBuf(ev.EncodedSize()))
	nWords, maskWords := diffWords(k)

	// First pass counts changed words so the payload allocates exact-size;
	// second pass writes masks in place and appends the changed words.
	changed := 0
	for w := 0; w < nWords; w++ {
		if binary.LittleEndian.Uint64(oldB[w*8:]) != binary.LittleEndian.Uint64(newB[w*8:]) {
			changed++
		}
	}
	p := make([]byte, 8+8*maskWords, 8+8*(maskWords+changed))
	binary.LittleEndian.PutUint64(p, tag)
	for w := 0; w < nWords; w++ {
		nv := binary.LittleEndian.Uint64(newB[w*8:])
		if binary.LittleEndian.Uint64(oldB[w*8:]) != nv {
			mo := 8 + (w/64)*8
			binary.LittleEndian.PutUint64(p[mo:], binary.LittleEndian.Uint64(p[mo:])|1<<(w%64))
			p = binary.LittleEndian.AppendUint64(p, nv)
		}
	}
	event.PutBuf(oldB)
	event.PutBuf(newB)
	return Item{Type: TypeDiffBase + uint8(k), Core: core, Slot: slot, Payload: p}
}

// DiffSize returns the wire payload size DiffItem would produce without
// building it (for fusion-benefit accounting).
func DiffSize(prev, ev event.Event) int {
	k := ev.Kind()
	oldB := prev.AppendTo(event.GetBuf(prev.EncodedSize()))
	newB := ev.AppendTo(event.GetBuf(ev.EncodedSize()))
	nWords, maskWords := diffWords(k)
	n := 0
	for w := 0; w < nWords; w++ {
		if binary.LittleEndian.Uint64(oldB[w*8:]) != binary.LittleEndian.Uint64(newB[w*8:]) {
			n++
		}
	}
	event.PutBuf(oldB)
	event.PutBuf(newB)
	return 8 + 8*(maskWords+n)
}

// DecodeDiff completes a diff item using the previous instance of the same
// kind, decoding the reconstructed event into dst (a value of that kind,
// owned by the caller, not prev) and returning the order tag.
func DecodeDiff(it Item, prev, dst event.Event) (tag uint64, err error) {
	k, ok := it.Kind()
	if !ok || it.Type < TypeDiffBase || it.Type >= TypeInvalid {
		return 0, fmt.Errorf("wire: item type %d is not a diff", it.Type)
	}
	if prev == nil || prev.Kind() != k {
		return 0, fmt.Errorf("wire: diff of %v lacks matching base", k)
	}
	nWords, maskWords := diffWords(k)
	if len(it.Payload) < 8+maskWords*8 {
		return 0, fmt.Errorf("wire: short diff payload for %v", k)
	}
	tag = binary.LittleEndian.Uint64(it.Payload)
	body := it.Payload[8:]
	// Pooled scratch holds the reconstructed encoding; decoding copies it
	// into dst, so the scratch is safe to recycle after.
	buf := prev.AppendTo(event.GetBuf(prev.EncodedSize()))
	pos := maskWords * 8
	for w := 0; w < nWords; w++ {
		m := binary.LittleEndian.Uint64(body[(w/64)*8:])
		if m&(1<<(w%64)) != 0 {
			if pos+8 > len(body) {
				event.PutBuf(buf)
				return 0, fmt.Errorf("wire: diff payload truncated for %v", k)
			}
			copy(buf[w*8:], body[pos:pos+8])
			pos += 8
		}
	}
	if pos != len(body) {
		event.PutBuf(buf)
		return 0, fmt.Errorf("wire: diff payload for %v has %d trailing bytes", k, len(body)-pos)
	}
	err = decodeInto(k, buf, dst)
	event.PutBuf(buf)
	return tag, err
}

// ParseDiffLen scans a diff payload prefix for kind k starting at buf and
// returns the total payload length (tag + mask words + changed words). Used
// by the unpacker to delimit variable-length diff items inside a segment.
func ParseDiffLen(k event.Kind, buf []byte) (int, error) {
	nWords, maskWords := diffWords(k)
	if len(buf) < 8+maskWords*8 {
		return 0, fmt.Errorf("wire: truncated diff mask for %v", k)
	}
	changed := 0
	for w := 0; w < nWords; w++ {
		m := binary.LittleEndian.Uint64(buf[8+(w/64)*8:])
		if m&(1<<(w%64)) != 0 {
			changed++
		}
	}
	return 8 + 8*(maskWords+changed), nil
}
