// Package trace implements DUT-trace dumping and reloading — the tuning
// toolkit's iterative-debugging support (paper §5): the verification events
// captured from a DUT run are dumped once, and the verification logic
// (Squash, Batch, checker) can then be re-driven from the trace without
// recompiling or re-running the DUT.
//
// The format is a simple framed binary stream:
//
//	header : magic "DTHT" | version u16 | reserved u16
//	frame  : cycle u64 | count u32 | records
//	record : kind u8 | core u8 | reserved u16 | seq u64 | payload (fixed size)
//	trailer: cycle = MaxUint64, count = 0
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/event"
)

var magic = [4]byte{'D', 'T', 'H', 'T'}

const version = 1

// Writer dumps per-cycle record batches.
type Writer struct {
	w      *bufio.Writer
	wrote  bool
	Cycles uint64
	Events uint64
}

// NewWriter starts a trace on w.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, err
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint16(hdr[0:], version)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// WriteCycle appends one cycle's records.
func (t *Writer) WriteCycle(cycle uint64, recs []event.Record) error {
	if len(recs) == 0 {
		return nil
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[0:], cycle)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(recs)))
	if _, err := t.w.Write(hdr[:]); err != nil {
		return err
	}
	for _, rec := range recs {
		var rh [12]byte
		rh[0] = uint8(rec.Kind)
		rh[1] = rec.Core
		binary.LittleEndian.PutUint64(rh[4:], rec.Seq)
		if _, err := t.w.Write(rh[:]); err != nil {
			return err
		}
		if _, err := t.w.Write(rec.Data); err != nil {
			return err
		}
		t.Events++
	}
	t.Cycles++
	t.wrote = true
	return nil
}

// Close writes the trailer and flushes.
func (t *Writer) Close() error {
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[0:], math.MaxUint64)
	if _, err := t.w.Write(hdr[:]); err != nil {
		return err
	}
	return t.w.Flush()
}

// Reader replays a dumped trace cycle by cycle.
type Reader struct {
	r      *bufio.Reader
	done   bool
	Cycles uint64
	Events uint64
}

// NewReader opens a trace stream, validating the header.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	if [4]byte(hdr[:4]) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != version {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	return &Reader{r: br}, nil
}

// ReadCycle returns the next cycle's records. io.EOF signals a clean end.
// The records own their encodings: each call allocates fresh storage.
func (t *Reader) ReadCycle() (cycle uint64, recs []event.Record, err error) {
	if t.done {
		return 0, nil, io.EOF
	}
	var hdr [12]byte
	if _, err := io.ReadFull(t.r, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("trace: truncated frame: %w", err)
	}
	cycle = binary.LittleEndian.Uint64(hdr[0:])
	if cycle == math.MaxUint64 {
		t.done = true
		return 0, nil, io.EOF
	}
	count := binary.LittleEndian.Uint32(hdr[8:])
	recs = make([]event.Record, 0, count)
	var arena []byte
	for i := uint32(0); i < count; i++ {
		var rh [12]byte
		if _, err := io.ReadFull(t.r, rh[:]); err != nil {
			return 0, nil, fmt.Errorf("trace: truncated record header: %w", err)
		}
		k := event.Kind(rh[0])
		if k >= event.NumKinds {
			return 0, nil, fmt.Errorf("trace: bad kind %d", rh[0])
		}
		start := len(arena)
		arena = append(arena, make([]byte, event.SizeOf(k))...)
		data := arena[start:len(arena):len(arena)]
		if _, err := io.ReadFull(t.r, data); err != nil {
			return 0, nil, fmt.Errorf("trace: truncated payload: %w", err)
		}
		recs = append(recs, event.Record{
			Seq: binary.LittleEndian.Uint64(rh[4:]), Core: rh[1], Kind: k, Data: data,
		})
		t.Events++
	}
	t.Cycles++
	return cycle, recs, nil
}
