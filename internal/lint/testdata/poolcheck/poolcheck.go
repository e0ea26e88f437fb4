// Package poolcheck holds fixtures for the poolcheck analyzer: every
// event.GetBuf must be matched by PutBuf/Release or an ownership transfer
// on every control-flow path.
package poolcheck

import (
	"errors"

	"repro/internal/batch"
	"repro/internal/event"
	"repro/internal/faultnet"
)

var errBoom = errors.New("boom")

func cond() bool { return false }

func work(b []byte) {}

// leakOnEarlyReturn forgets the buffer on the error path — the exact bug
// class from internal/cosim's transport loop.
func leakOnEarlyReturn() error {
	buf := event.GetBuf(64) // want `not released`
	if cond() {
		return errBoom
	}
	event.PutBuf(buf)
	return nil
}

// leakAtEnd never releases at all.
func leakAtEnd() int {
	buf := event.GetBuf(8) // want `not released`
	return len(buf)
}

// discarded drops the result on the floor.
func discarded() {
	event.GetBuf(8) // want `discarded`
}

// discardedBlank can never be released either.
func discardedBlank() {
	_ = event.GetBuf(8) // want `discarded`
}

// overwritten loses the only reference to a live buffer.
func overwritten() {
	buf := event.GetBuf(8) // want `overwritten without PutBuf`
	buf = nil
	_ = buf
}

// loopLeak leaks one buffer per iteration.
func loopLeak(n int) {
	for i := 0; i < n; i++ {
		buf := event.GetBuf(8) // want `leaks across loop iterations`
		work(buf)
	}
}

// switchLeak releases in one arm but not the default.
func switchLeak(k int) {
	buf := event.GetBuf(8) // want `not released`
	switch k {
	case 0:
		event.PutBuf(buf)
	default:
	}
}

// multiValue buries the acquisition where no owner can be tracked.
func multiValue() {
	n, err := consume(event.GetBuf(8)) // want `multi-value`
	_, _ = n, err
}

func consume(b []byte) (int, error) { return len(b), nil }

// --- clean patterns below: no findings expected ---

// balanced is the canonical acquire/use/release sequence.
func balanced() {
	buf := event.GetBuf(32)
	work(buf)
	event.PutBuf(buf)
}

// branches releases on both arms.
func branches() {
	buf := event.GetBuf(8)
	if cond() {
		event.PutBuf(buf)
	} else {
		event.PutBuf(buf)
	}
}

// errorPath releases before every return, like internal/wire's decoders.
func errorPath() error {
	buf := event.GetBuf(16)
	if cond() {
		event.PutBuf(buf)
		return errBoom
	}
	event.PutBuf(buf)
	return nil
}

// deferred releases via defer, covering every exit path.
func deferred() {
	buf := event.GetBuf(16)
	defer event.PutBuf(buf)
	work(buf)
}

// deferClosure releases through a deferred closure.
func deferClosure() {
	buf := event.GetBuf(8)
	defer func() { event.PutBuf(buf) }()
	work(buf)
}

// appended follows ownership through append back into the same variable.
func appended() {
	buf := event.GetBuf(8)
	buf = append(buf, 1, 2, 3)
	event.PutBuf(buf)
}

// encoded follows ownership through an AppendTo-style call result.
func encoded(ev event.Event) {
	b := ev.AppendTo(event.GetBuf(ev.EncodedSize())[:0])
	event.PutBuf(b)
}

// transferred hands the buffer to a Packet; Release returns it to the pool.
func transferred() {
	buf := event.GetBuf(32)
	pkt := batch.Packet{Buf: buf}
	pkt.Release()
}

// escapes transfers ownership to the caller — the documented escape.
func escapes() []byte {
	return event.GetBuf(8)
}

// escapesVar transfers ownership to the caller through a local.
func escapesVar() []byte {
	buf := event.GetBuf(8)
	return buf
}

type holder struct {
	b []byte
}

// storedInField transfers ownership to a long-lived structure.
func storedInField(h *holder) {
	h.b = event.GetBuf(8)
}

// sentAway transfers ownership over a channel.
func sentAway(ch chan []byte) {
	buf := event.GetBuf(8)
	ch <- buf
}

// goroutineEscape hands the buffer to a goroutine.
func goroutineEscape() {
	buf := event.GetBuf(8)
	go work(buf)
}

// perIteration releases inside each iteration — the trace.ReadCycle shape.
func perIteration(rows [][]byte) {
	for range rows {
		buf := event.GetBuf(8)
		event.PutBuf(buf)
	}
}

// accumulator transfers loop-acquired buffers to an outer accumulator.
func accumulator(n int) [][]byte {
	var out [][]byte
	for i := 0; i < n; i++ {
		buf := event.GetBuf(8)
		out = append(out, buf)
	}
	return out
}

// reads only inspects the buffer; bool/int results do not adopt ownership.
func reads() {
	buf := event.GetBuf(8)
	n := len(buf)
	ok := cap(buf) >= n
	_ = ok
	event.PutBuf(buf)
}

// terminalPath: paths that cannot return need no release.
func terminalPath() {
	buf := event.GetBuf(8)
	if cond() {
		panic("unreachable state")
	}
	event.PutBuf(buf)
}

// adoptedByJournal hands the snapshot to faultnet's journal: Adopt* methods
// take over pooled arguments (released later by Journal.Release), so the
// fault-injection wrapper needs no PutBuf and no lint:ignore.
func adoptedByJournal(j *faultnet.Journal, p []byte) {
	snap := event.GetBuf(len(p))
	snap = append(snap, p...)
	j.AdoptFrame("write", 0, snap)
}

type sink struct{}

func (sink) AdoptBuf(b []byte) {}

// adoptNamesake: the Adopt* convention is scoped to faultnet types; a
// lookalike method elsewhere does not transfer ownership.
func adoptNamesake(s sink) {
	buf := event.GetBuf(8) // want `not released`
	s.AdoptBuf(buf)
}

// nilGuardedRelease acquires conditionally and releases under a nil guard —
// the transport.ReadFrame error-path shape. GetBuf never returns nil, so
// the guarded PutBuf covers every acquiring path.
func nilGuardedRelease(n int) {
	var buf []byte
	if n > 0 {
		buf = event.GetBuf(n)
	}
	if buf != nil {
		event.PutBuf(buf)
	}
}

// nilGuardedWrongBranch releases on the branch where the buffer is provably
// nil: the live paths still leak.
func nilGuardedWrongBranch(n int) {
	buf := event.GetBuf(n) // want `not released`
	if buf == nil {
		event.PutBuf(buf)
	}
}
