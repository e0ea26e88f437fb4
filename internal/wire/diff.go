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
	p := AppendDiff(nil, tag, event.EncodeValue(prev), event.EncodeValue(ev))
	return Item{Type: TypeDiffBase + uint8(k), Core: core, Slot: slot, Payload: p}
}

// AppendDiff appends the diff item payload of cur against prev — two
// encodings of the same kind — to dst: the tag, the changed-word bitmask,
// then each changed 64-bit word of cur.
func AppendDiff(dst []byte, tag uint64, prev, cur []byte) []byte {
	if len(prev) != len(cur) {
		panic("wire: AppendDiff base/event size mismatch")
	}
	nWords := len(cur) / 8
	maskWords := (nWords + 63) / 64
	dst = binary.LittleEndian.AppendUint64(dst, tag)
	masks := len(dst)
	for w := 0; w < maskWords; w++ {
		dst = binary.LittleEndian.AppendUint64(dst, 0)
	}
	for w := 0; w < nWords; w++ {
		nv := binary.LittleEndian.Uint64(cur[w*8:])
		if binary.LittleEndian.Uint64(prev[w*8:]) != nv {
			mo := masks + (w/64)*8
			binary.LittleEndian.PutUint64(dst[mo:], binary.LittleEndian.Uint64(dst[mo:])|1<<(w%64))
			dst = binary.LittleEndian.AppendUint64(dst, nv)
		}
	}
	return dst
}

// ApplyDiff completes a diff item against prev, the previous encoding of the
// same kind, appending the reconstructed encoding to dst and returning it
// with the item's order tag.
func ApplyDiff(dst []byte, it Item, prev []byte) (tag uint64, out []byte, err error) {
	k, ok := it.Kind()
	if !ok || it.Type < TypeDiffBase || it.Type >= TypeInvalid {
		return 0, dst, fmt.Errorf("wire: item type %d is not a diff", it.Type)
	}
	if len(prev) != event.SizeOf(k) {
		return 0, dst, fmt.Errorf("wire: diff of %v lacks matching base", k)
	}
	nWords, maskWords := diffWords(k)
	if len(it.Payload) < 8+maskWords*8 {
		return 0, dst, fmt.Errorf("wire: short diff payload for %v", k)
	}
	tag = binary.LittleEndian.Uint64(it.Payload)
	body := it.Payload[8:]
	start := len(dst)
	out = append(dst, prev...)
	pos := maskWords * 8
	for w := 0; w < nWords; w++ {
		m := binary.LittleEndian.Uint64(body[(w/64)*8:])
		if m&(1<<(w%64)) != 0 {
			if pos+8 > len(body) {
				return 0, dst, fmt.Errorf("wire: diff payload truncated for %v", k)
			}
			copy(out[start+w*8:], body[pos:pos+8])
			pos += 8
		}
	}
	if pos != len(body) {
		return 0, dst, fmt.Errorf("wire: diff payload for %v has %d trailing bytes", k, len(body)-pos)
	}
	return tag, out, nil
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
