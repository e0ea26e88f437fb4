// Package faultnet wraps net.Conn and net.Listener with deterministic,
// seeded fault injection: the network chaos a long-lived FPGA-to-host
// verification link actually sees — delayed and partially flushed writes,
// short reads, corrupted bytes, mid-frame connection resets, and silent
// stalls — reproduced on demand so the transport's resume and verdict
// machinery can be tested against it.
//
// Determinism is the point. Every connection draws its faults from
// rand.PCG streams seeded by Plan.Seed, one stream per direction, and each
// write (or read) consumes a fixed number of draws whether or not a fault
// fires, so the fault sequence is a pure function of (seed, operation
// index). A failing run therefore replays from its seed alone, and every
// injected fault is recorded in the connection's Journal, which the test
// harness prints on failure.
//
// Two modes:
//
//   - Scripted: Plan.Script lists exact (operation index, fault, offset)
//     triples. Used by regression tests that pin one precise failure, e.g.
//     "reset the connection 7 bytes into the 3rd write".
//   - Probabilistic: per-operation fault probabilities, still fully
//     deterministic given the seed. Used by the fault-matrix sweep.
package faultnet

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
)

// Kind enumerates the injectable faults.
type Kind uint8

const (
	// Delay sleeps before delivering a write (link latency spike).
	Delay Kind = iota + 1
	// PartialWrite splits one write into two underlying writes with a
	// pause between them, exercising the peer's mid-frame ReadFull paths.
	PartialWrite
	// ShortRead delivers inbound bytes in 1..8-byte slivers, exercising
	// the reader's buffered refill paths.
	ShortRead
	// Corrupt flips one byte of a write; the frame checksum must catch it.
	Corrupt
	// Reset delivers a prefix of a write and then closes the connection,
	// dropping the tail — the mid-frame reset case. Inbound bytes read once
	// the reset has begun are dropped too, as a reset socket discards
	// them: a reply the peer sends to the delivered prefix is always lost.
	Reset
	// Stall silently discards a write and everything after it: the local
	// side sees successful writes while the peer sees a dead link.
	Stall
)

// String names the fault for journals and test output.
func (k Kind) String() string {
	switch k {
	case Delay:
		return "delay"
	case PartialWrite:
		return "partial-write"
	case ShortRead:
		return "short-read"
	case Corrupt:
		return "corrupt"
	case Reset:
		return "reset"
	case Stall:
		return "stall"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ErrInjectedReset is returned by a write interrupted by a Reset fault;
// every later operation on the connection fails with it too.
var ErrInjectedReset = errors.New("faultnet: injected connection reset")

// Op is one scripted fault: Index is the 0-based operation counter in the
// fault's direction (writes for Delay/PartialWrite/Corrupt/Reset/Stall,
// reads for ShortRead); Offset parameterizes the byte position — the split
// point for PartialWrite, the flipped byte for Corrupt, the delivered
// prefix length for Reset.
type Op struct {
	Index  int
	Kind   Kind
	Offset int
}

// Plan configures one connection's fault injection. A nil/zero Plan
// injects nothing.
type Plan struct {
	// Seed drives every probabilistic draw and random offset.
	Seed int64

	// Script, when non-empty, selects scripted mode: exactly these ops
	// fire, and the probabilities below are ignored.
	Script []Op

	// Probabilistic mode: per-write fault probabilities, drawn in a fixed
	// order (Delay, PartialWrite, Corrupt, Reset, Stall) so the draw
	// stream stays aligned across runs. PShortRead is per-read.
	PDelay     float64
	PPartial   float64
	PCorrupt   float64
	PReset     float64
	PStall     float64
	PShortRead float64

	// MaxDelay bounds injected sleeps (0 = 2ms).
	MaxDelay time.Duration
}

func (p Plan) maxDelay() time.Duration {
	if p.MaxDelay <= 0 {
		return 2 * time.Millisecond
	}
	return p.MaxDelay
}

// Event is one journal entry: an injected fault, located by direction and
// operation index.
type Event struct {
	Dir    string // "write" or "read"
	Index  int    // operation index within Dir
	Kind   Kind
	Detail string
}

// String renders one entry for failure output.
func (e Event) String() string {
	return fmt.Sprintf("%s#%d %s: %s", e.Dir, e.Index, e.Kind, e.Detail)
}

// Journal records every fault a connection injected, plus pooled snapshots
// of the frames a fault touched, so a failing run's output is enough to
// replay and diagnose it. Safe for concurrent use (reads and writes run on
// different goroutines).
type Journal struct {
	mu     sync.Mutex
	seed   int64
	events []Event
	bufs   [][]byte // pooled snapshots adopted via AdoptFrame
}

// NewJournal starts an empty journal tagged with the plan seed it belongs
// to, so String output always names the seed that reproduces the run.
func NewJournal(seed int64) *Journal {
	return &Journal{seed: seed}
}

func (j *Journal) record(ev Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.events = append(j.events, ev)
	j.mu.Unlock()
}

// AdoptFrame takes ownership of a pooled buffer (event.GetBuf) holding a
// snapshot of the bytes a fault touched; the journal releases every
// adopted buffer in Release. difftestlint's poolcheck knows faultnet's
// Adopt* methods transfer ownership, so callers need no release of their
// own.
func (j *Journal) AdoptFrame(dir string, index int, buf []byte) {
	if j == nil {
		event.PutBuf(buf)
		return
	}
	j.mu.Lock()
	j.bufs = append(j.bufs, buf)
	j.events = append(j.events, Event{Dir: dir, Index: index, Kind: Corrupt,
		Detail: fmt.Sprintf("original %d bytes captured", len(buf))})
	j.mu.Unlock()
}

// Release returns every adopted snapshot to the buffer pool. Call once the
// journal's output has been consumed (test cleanup), so the pool-balance
// gates hold.
func (j *Journal) Release() {
	if j == nil {
		return
	}
	j.mu.Lock()
	bufs := j.bufs
	j.bufs = nil
	j.mu.Unlock()
	for _, b := range bufs {
		event.PutBuf(b)
	}
}

// Events returns a copy of the recorded fault sequence.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Event(nil), j.events...)
}

// String renders the journal as one replayable block: the seed line, then
// one line per injected fault.
func (j *Journal) String() string {
	if j == nil {
		return "faultnet: no journal"
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "faultnet seed %d, %d fault(s)", j.seed, len(j.events))
	for _, e := range j.events {
		b.WriteString("\n  ")
		b.WriteString(e.String())
	}
	return b.String()
}

// Conn injects the plan's faults into one wrapped connection. The write
// path assumes one writer at a time (transport.Conn already serializes
// writers); the read path assumes one reader. Reads and writes may run
// concurrently with each other and with Close.
type Conn struct {
	nc   net.Conn
	plan Plan
	j    *Journal

	wmu      sync.Mutex
	wrng     *rand.Rand
	writes   int
	stalled  bool
	resetErr error

	// resetting is set before a Reset delivers its prefix; reads that
	// return after it drop their bytes.
	resetting atomic.Bool

	rmu   sync.Mutex
	rrng  *rand.Rand
	reads int
}

// New wraps nc with the plan's fault injection, recording into j (which
// may be nil for fire-and-forget chaos).
func New(nc net.Conn, plan Plan, j *Journal) *Conn {
	seed := uint64(plan.Seed)
	return &Conn{
		nc:   nc,
		plan: plan,
		j:    j,
		// Independent per-direction streams: read faults cannot shift the
		// write-fault sequence, so each direction replays from the seed no
		// matter how the goroutines interleave.
		wrng: rand.New(rand.NewPCG(seed, 0x77726974655f6469)), // "write_di"
		rrng: rand.New(rand.NewPCG(seed, 0x726561645f646972)), // "read_dir"
	}
}

// scripted returns the scripted op for (dir-appropriate kind, index), if any.
func (c *Conn) scripted(index int, read bool) (Op, bool) {
	for _, op := range c.plan.Script {
		if op.Index != index {
			continue
		}
		if read == (op.Kind == ShortRead) {
			return op, true
		}
	}
	return Op{}, false
}

// writeFault decides the fault for write #index over n bytes. In
// probabilistic mode it always consumes the same number of draws, keeping
// the stream aligned with the operation index.
func (c *Conn) writeFault(index, n int) (Op, bool) {
	if len(c.plan.Script) > 0 {
		return c.scripted(index, false)
	}
	// Fixed draw order; first hit wins but every probability is drawn.
	var hit Kind
	for _, f := range [...]struct {
		k Kind
		p float64
	}{
		{Delay, c.plan.PDelay},
		{PartialWrite, c.plan.PPartial},
		{Corrupt, c.plan.PCorrupt},
		{Reset, c.plan.PReset},
		{Stall, c.plan.PStall},
	} {
		if v := c.wrng.Float64(); hit == 0 && v < f.p {
			hit = f.k
		}
	}
	off := c.wrng.IntN(maxInt(n, 1))
	if hit == 0 {
		return Op{}, false
	}
	return Op{Index: index, Kind: hit, Offset: off}, true
}

// readFault decides the fault for read #index.
func (c *Conn) readFault(index int) (Op, bool) {
	if len(c.plan.Script) > 0 {
		return c.scripted(index, true)
	}
	v := c.rrng.Float64()
	if v < c.plan.PShortRead {
		return Op{Index: index, Kind: ShortRead}, true
	}
	return Op{}, false
}

// sleep pauses for a seeded duration bounded by the plan's MaxDelay.
func (c *Conn) sleep() time.Duration {
	d := time.Duration(c.wrng.Int64N(int64(c.plan.maxDelay()) + 1))
	time.Sleep(d)
	return d
}

// Write applies at most one fault, then delivers (or drops, or truncates)
// the bytes.
func (c *Conn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.resetErr != nil {
		return 0, c.resetErr
	}
	index := c.writes
	c.writes++
	if c.stalled {
		// The stall swallows everything: the caller believes the write
		// succeeded, the peer never sees it.
		return len(p), nil
	}
	op, ok := c.writeFault(index, len(p))
	if !ok {
		return c.nc.Write(p)
	}
	switch op.Kind {
	case Delay:
		d := c.sleep()
		c.j.record(Event{Dir: "write", Index: index, Kind: Delay,
			Detail: fmt.Sprintf("%v before %d bytes", d, len(p))})
		return c.nc.Write(p)

	case PartialWrite:
		k := clamp(op.Offset, 1, len(p)-1)
		if len(p) < 2 {
			return c.nc.Write(p)
		}
		c.j.record(Event{Dir: "write", Index: index, Kind: PartialWrite,
			Detail: fmt.Sprintf("%d bytes split at %d", len(p), k)})
		n1, err := c.nc.Write(p[:k])
		if err != nil {
			return n1, err
		}
		c.sleep()
		n2, err := c.nc.Write(p[k:])
		return n1 + n2, err

	case Corrupt:
		if len(p) == 0 {
			return c.nc.Write(p)
		}
		k := op.Offset % len(p)
		// Snapshot the original bytes for the journal's replay output; the
		// journal adopts the pooled buffer and releases it.
		snap := event.GetBuf(len(p))
		snap = append(snap, p...)
		c.j.AdoptFrame("write", index, snap)
		tmp := make([]byte, len(p))
		copy(tmp, p)
		tmp[k] ^= 0xa5
		c.j.record(Event{Dir: "write", Index: index, Kind: Corrupt,
			Detail: fmt.Sprintf("byte %d of %d flipped", k, len(p))})
		return c.nc.Write(tmp)

	case Reset:
		c.resetting.Store(true)
		k := clamp(op.Offset, 0, len(p))
		n, _ := c.nc.Write(p[:k])
		c.nc.Close()
		c.resetErr = ErrInjectedReset
		c.j.record(Event{Dir: "write", Index: index, Kind: Reset,
			Detail: fmt.Sprintf("%d of %d bytes delivered, connection closed", n, len(p))})
		return n, ErrInjectedReset

	case Stall:
		c.stalled = true
		c.j.record(Event{Dir: "write", Index: index, Kind: Stall,
			Detail: fmt.Sprintf("this write (%d bytes) and all later writes discarded", len(p))})
		return len(p), nil
	}
	return c.nc.Write(p)
}

// Read applies the short-read fault, otherwise delegates.
func (c *Conn) Read(p []byte) (int, error) {
	c.rmu.Lock()
	index := c.reads
	c.reads++
	op, ok := c.readFault(index)
	var sliver int
	if ok && op.Kind == ShortRead && len(p) > 1 {
		sliver = 1 + c.rrng.IntN(minInt(len(p)-1, 7))
	}
	c.rmu.Unlock()
	if sliver > 0 {
		n, err := c.nc.Read(p[:sliver])
		c.j.record(Event{Dir: "read", Index: index, Kind: ShortRead,
			Detail: fmt.Sprintf("%d of up to %d bytes delivered", n, len(p))})
		return c.dropAfterReset(n, err)
	}
	return c.dropAfterReset(c.nc.Read(p))
}

// dropAfterReset discards a read's bytes once a Reset has begun.
func (c *Conn) dropAfterReset(n int, err error) (int, error) {
	if c.resetting.Load() {
		return 0, ErrInjectedReset
	}
	return n, err
}

// Close closes the wrapped connection.
func (c *Conn) Close() error { return c.nc.Close() }

// LocalAddr delegates.
func (c *Conn) LocalAddr() net.Addr { return c.nc.LocalAddr() }

// RemoteAddr delegates.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// SetDeadline delegates.
func (c *Conn) SetDeadline(t time.Time) error { return c.nc.SetDeadline(t) }

// SetReadDeadline delegates.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.nc.SetReadDeadline(t) }

// SetWriteDeadline delegates.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.nc.SetWriteDeadline(t) }

// Listener wraps an accept loop: each accepted connection is wrapped with
// the plan NewPlan returns for its 0-based accept index (nil NewPlan or a
// nil-returning call passes the connection through unwrapped).
type Listener struct {
	net.Listener
	// NewPlan builds the plan and journal for accepted connection i.
	NewPlan func(i int) (Plan, *Journal)

	mu sync.Mutex
	n  int
}

// Accept wraps the next connection per NewPlan.
func (l *Listener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	i := l.n
	l.n++
	l.mu.Unlock()
	if l.NewPlan == nil {
		return nc, nil
	}
	plan, j := l.NewPlan(i)
	return New(nc, plan, j), nil
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
