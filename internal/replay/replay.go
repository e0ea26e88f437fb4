// Package replay implements the Replay mechanism (paper §4.4): preserving
// instruction-level debuggability under fusion by reprocessing the original,
// unfused verification events around the failure point.
//
// The hardware side buffers every monitor record with a monotonically
// increasing token before fusion. When the software checker detects a
// mismatch on a fused event, the controller:
//
//  1. reverts the reference model to the checkpoint taken at the failing
//     window's start (compensation-log rollback, not a full snapshot);
//  2. uses the window's start token to request retransmission of exactly
//     the buffered records in range;
//  3. reprocesses them through the per-event checking path, pinpointing the
//     first mismatching instruction and producing a detailed report.
package replay

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/checker"
	"repro/internal/event"
	"repro/internal/ref"
)

// Buffer is the hardware-side ring of original records awaiting potential
// replay. Tokens identify records globally; old records are evicted as the
// ring fills (they are only needed until their window checks clean).
// The buffer is internally synchronized: in the executed pipeline the
// hardware producer goroutine appends (Add) while the software consumer
// reads ranges for replay (Range), mirroring the hardware's dual-ported
// buffer RAM.
//
// Storage is pointer-free: fixed-size record headers indexed by token, and
// the records' encodings indexed by absolute byte position, each in blocks
// that are added as the ring grows and recycled as it evicts (see blocks).
// Add copies each record in; Range, the rare replay path, copies the
// requested ones out.
type Buffer struct {
	// Cap is the number of records kept; eviction trims back to it in
	// quarter-capacity chunks, so up to Cap+Cap/4-1 may be buffered.
	Cap int

	mu          sync.Mutex
	hdr         blocks[recHdr]
	data        blocks[byte]
	first, next uint64 // tokens of the oldest buffered record and the next one
	tail, head  uint64 // absolute byte positions bounding the buffered encodings
}

// recHdr locates one buffered record's encoding and carries its stamp.
type recHdr struct {
	pos  uint64 // absolute byte position of the encoding
	seq  uint64
	n    uint32 // encoding length
	core uint8
	kind event.Kind
}

// Block sizes, as shifts: 2048 headers (48 KiB) and 64 KiB of encodings.
const (
	hdrBlockShift  = 11
	dataBlockShift = 16
)

// NewBuffer returns a ring buffer holding up to cap records.
func NewBuffer(cap int) *Buffer {
	if cap <= 0 {
		cap = 1 << 16
	}
	return &Buffer{Cap: cap, hdr: blocks[recHdr]{shift: hdrBlockShift}, data: blocks[byte]{shift: dataBlockShift}}
}

// Add buffers one cycle's records — copying their encodings, so the caller
// may reuse them — and returns the token of the first.
func (b *Buffer) Add(recs []event.Record) (startToken uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	startToken = b.next
	for _, r := range recs {
		b.hdr.span(b.next)[0] = recHdr{
			pos: b.head, seq: r.Seq, n: uint32(len(r.Data)), core: r.Core, kind: r.Kind,
		}
		for pos, src := b.head, r.Data; len(src) > 0; {
			n := copy(b.data.span(pos), src)
			pos, src = pos+uint64(n), src[n:]
		}
		b.head += uint64(len(r.Data))
		b.next++
	}
	// Evict in quarter-capacity chunks so the amortized cost per record
	// stays O(1).
	if over := int(b.next-b.first) - b.Cap; over >= b.Cap/4 {
		b.first += uint64(over)
		b.tail = b.head
		if b.first < b.next {
			b.tail = b.hdr.span(b.first)[0].pos
		}
		b.hdr.trim(b.first)
		b.data.trim(b.tail)
	}
	return startToken
}

// Len reports the number of buffered records.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return int(b.next - b.first)
}

// NextToken returns the token the next added record will get.
func (b *Buffer) NextToken() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.next
}

// BufferedBytes returns the buffered payload volume.
func (b *Buffer) BufferedBytes() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.head - b.tail
}

// Range retransmits the buffered records for one core with tokens in
// [from, b.next), as copies the caller owns. It reports an error if the
// range was evicted.
func (b *Buffer) Range(core uint8, from uint64) ([]event.Record, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if from < b.first {
		return nil, fmt.Errorf("replay: token %d evicted (buffer starts at %d)", from, b.first)
	}
	var n, size int
	for t := from; t < b.next; t++ {
		if h := b.hdr.span(t)[0]; h.core == core {
			n++
			size += int(h.n)
		}
	}
	out := make([]event.Record, 0, n)
	buf := make([]byte, size)
	for t := from; t < b.next; t++ {
		h := b.hdr.span(t)[0]
		if h.core != core {
			continue
		}
		data := buf[:h.n:h.n]
		buf = buf[h.n:]
		for pos, dst := h.pos, data; len(dst) > 0; {
			n := copy(dst, b.data.span(pos))
			pos, dst = pos+uint64(n), dst[n:]
		}
		out = append(out, event.Record{Seq: h.seq, Core: h.core, Kind: h.kind, Data: data})
	}
	return out, nil
}

// Report is the instruction-level debugging report Replay produces.
type Report struct {
	// Original is the fused-level mismatch that triggered replay.
	Original *checker.Mismatch
	// Outcome says how the replay ended; it decides what Detailed holds.
	Outcome Outcome
	// Detailed is the per-instruction mismatch found by reprocessing the
	// unfused events (Localized), Original itself (NoCheckpoint), or nil
	// (NotReproduced, Overrun).
	Detailed *checker.Mismatch
	// Err is the buffer's eviction error when Outcome is Overrun.
	Err error
	// Replayed counts retransmitted records; ReplayedBytes their payload.
	Replayed      int
	ReplayedBytes int
	// CheckpointSeq is the instruction count the REF was reverted to.
	CheckpointSeq uint64
	// Context holds the last records processed before the failure.
	Context []event.Record
}

// Outcome classifies a replay.
type Outcome uint8

const (
	// Localized: reprocessing the unfused records found the first
	// mismatching instruction.
	Localized Outcome = iota
	// NotReproduced: every retransmitted record checked clean (e.g. a
	// digest hash collision).
	NotReproduced
	// Overrun: the ring evicted records after the checkpoint, so the
	// failing window could not be retransmitted.
	Overrun
	// NoCheckpoint: the mismatch came before the first checkpoint, so
	// there was nothing to revert to.
	NoCheckpoint
)

// String renders the report as the co-simulation's final bug analysis.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== Replay report ===\n")
	fmt.Fprintf(&sb, "fused-level detection : %v\n", r.Original)
	switch {
	case r.Outcome == Overrun:
		fmt.Fprintf(&sb, "instruction-level root: replay buffer overrun (%v)\n", r.Err)
	case r.Detailed != nil:
		fmt.Fprintf(&sb, "instruction-level root: %v\n", r.Detailed)
	default:
		fmt.Fprintf(&sb, "instruction-level root: not reproduced\n")
	}
	fmt.Fprintf(&sb, "reverted REF to instruction %d; replayed %d events (%d bytes)\n",
		r.CheckpointSeq, r.Replayed, r.ReplayedBytes)
	if len(r.Context) > 0 {
		fmt.Fprintf(&sb, "context (last %d events before failure):\n", len(r.Context))
		for _, rec := range r.Context {
			fmt.Fprintf(&sb, "  %v\n", rec)
		}
	}
	return sb.String()
}

// Controller drives replay for one core: it owns the checkpoint mark taken
// at each fusion-window boundary.
type Controller struct {
	CC  *checker.CoreChecker
	Buf *Buffer

	mark      ref.Mark
	markToken uint64
	haveMark  bool
}

// NewController wires a core checker to the hardware buffer.
func NewController(cc *checker.CoreChecker, buf *Buffer) *Controller {
	return &Controller{CC: cc, Buf: buf}
}

// Checkpoint records the reference model's state at a fusion-window start
// (called by the co-simulation before each fused window is processed).
// startToken is the window's first buffered token.
func (c *Controller) Checkpoint(startToken uint64) {
	c.mark = c.CC.Ref.Checkpoint()
	// Everything before this mark checked clean; its compensation entries
	// are no longer needed (bounded-memory revert, paper §4.4).
	c.CC.Ref.TrimBefore(c.mark)
	c.markToken = startToken
	c.haveMark = true
}

// Run reverts the reference model and reprocesses the original unfused
// records, producing the instruction-level report.
func (c *Controller) Run(original *checker.Mismatch) *Report {
	rep := &Report{Original: original, CheckpointSeq: c.mark.InstrRet()}
	if !c.haveMark {
		rep.Outcome, rep.Detailed = NoCheckpoint, original
		return rep
	}
	c.CC.Ref.Revert(c.mark)

	recs, err := c.Buf.Range(original.Core, c.markToken)
	if err != nil {
		rep.Outcome, rep.Err = Overrun, err
		return rep
	}

	const contextLen = 8
	rep.Outcome = NotReproduced
	for _, rec := range recs {
		rep.Replayed++
		rep.ReplayedBytes += len(rec.Data)
		if m := c.CC.Process(rec); m != nil {
			rep.Outcome, rep.Detailed = Localized, m
			break
		}
	}
	// Copies, so a kept report does not pin the whole retransmitted range.
	for _, rec := range recs[max(0, rep.Replayed-contextLen):rep.Replayed] {
		rep.Context = append(rep.Context, rec.Clone())
	}
	return rep
}
