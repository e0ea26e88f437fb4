// Package pipeline implements the executed co-simulation pipeline: the DUT
// event producer, the communication link, and the REF+checker consumer run
// as concurrent stages connected by bounded channels, so the NonBlock
// overlap of paper §4.5 is *measured* from real wall-clock concurrency
// instead of assumed by the analytic cost model.
//
// The stage graph mirrors the hardware:
//
//	producer ──chA──▶ link ──chB──▶ consumer
//
// In blocking mode (the traditional step-and-compare handshake) every
// transfer carries an ack that the consumer closes only after checking
// completes; the producer stalls on it, serializing the two sides exactly
// like a blocking DPI-C call. In non-blocking mode the producer streams
// into a bounded queue and stalls only when QueueDepth transfers are in
// flight — the same backpressure semantics as internal/comm's modeled
// in-flight queue, but enforced by real channel capacity.
//
// Run reports Metrics with per-stage busy times, so callers can compute the
// achieved hardware/software overlap from wall-clock measurements.
package pipeline

import (
	"sync"
	"time"
)

// Config selects the handshake mode and queue bound.
type Config struct {
	// NonBlocking streams transfers through a bounded queue; false gives
	// the per-transfer blocking handshake.
	NonBlocking bool
	// QueueDepth bounds in-flight transfers in non-blocking mode (≤0 = 1).
	// The effective in-flight bound is QueueDepth plus the handful of
	// transfers held by the link and consumer stages themselves.
	QueueDepth int
}

// Drop receives every produced transfer the consumer never saw when a run
// stops early (mismatch or error): transfers stranded in the stage queues
// and in stage hands. Callers whose transfers own pooled resources release
// them here — without it, an early stop leaks every in-flight buffer.
type Drop[T any] func(t T)

// Next produces the next transfer. ok=false ends the stream cleanly; a
// non-nil error aborts the whole pipeline.
type Next[T any] func() (t T, ok bool, err error)

// Sink consumes one transfer. stop=true aborts the stream early (the
// checker analog: a mismatch); a non-nil error aborts the pipeline.
type Sink[T any] func(t T) (stop bool, err error)

// Metrics reports one pipeline run's wall-clock accounting. Stage busy
// times are accumulated inside the stage goroutines and must be read only
// after Run returns.
type Metrics struct {
	Wall         time.Duration // end-to-end elapsed time
	ProducerBusy time.Duration // time spent inside Next calls
	ConsumerBusy time.Duration // time spent inside Sink calls

	Transfers    uint64 // transfers forwarded by the link stage
	Backpressure uint64 // producer sends that found the queue full
	Stopped      bool   // the consumer aborted the stream (stop=true)

	// TokenStalls counts sends that found the remote server's credit window
	// exhausted (networked runs only; internal/transport measures it and
	// internal/cosim copies it here after Run returns). It is the
	// wire-level analogue of Backpressure: Backpressure measures the local
	// in-flight queue filling up, TokenStalls the server-granted window.
	TokenStalls uint64

	// Reconnects counts successful session resumes after broken connections
	// (networked runs with a resume-enabled client; copied from the
	// transport client like TokenStalls).
	Reconnects uint64
	// ReplayedFrames counts data frames retransmitted from the client's
	// replay window across those resumes. Through a fleet router that
	// window is the whole stream so far, so each routed resume adds every
	// frame the session had sent.
	ReplayedFrames uint64
	// Migrations counts the resumes that moved the session to a different
	// backend shard — a fleet router's live migration (ResumeOK.Migrated).
	// Always ≤ Reconnects; zero against a single difftestd server.
	Migrations uint64
	// DegradedRuns is 1 when the networked session was lost beyond the
	// retry budget and the run was redone with in-process checking
	// (cosim's graceful degradation), 0 otherwise.
	DegradedRuns uint64

	// RingParks counts spin-phase exhaustions on a shared-memory ring
	// transport — how often either side of the link outlasted its yield
	// burst and slept (copied from transport.LinkStats after Run returns;
	// zero on socket transports, which park in the kernel instead). A high
	// count against low Backpressure/TokenStalls means the ring itself, not
	// the protocol window, is the pacing bottleneck.
	RingParks uint64

	// QueuePeak is the largest in-flight queue occupancy the link stage
	// observed (non-blocking mode; always ≤ Config.QueueDepth).
	QueuePeak int
	// queueDepthSum accumulates per-transfer occupancy samples for
	// MeanQueueDepth.
	queueDepthSum uint64
}

// MeanQueueDepth returns the average in-flight queue occupancy sampled at
// each link-stage forward — how full the bounded queue ran, 0..QueueDepth.
func (m *Metrics) MeanQueueDepth() float64 {
	if m.Transfers == 0 {
		return 0
	}
	return float64(m.queueDepthSum) / float64(m.Transfers)
}

// Overlap returns the wall-clock time during which producer and consumer
// were provably busy simultaneously: busy time that did not fit into the
// elapsed window must have been concurrent.
//
// It is a lower bound, not a measurement of the overlap itself. Every
// stretch in which neither stage is inside its call (a wake-up after a
// handoff, a goroutine waiting for a CPU) cancels the same stretch of real
// overlap, so on an oversubscribed host it reads 0 even while the stages
// overlap and the non-blocking run beats the blocking one.
func (m *Metrics) Overlap() time.Duration {
	over := m.ProducerBusy + m.ConsumerBusy - m.Wall
	if over < 0 {
		return 0
	}
	return over
}

// OverlapShare returns Overlap as a fraction of wall-clock time. It is the
// same lower bound: 0 on a busy host does not mean the stages ran in turn.
func (m *Metrics) OverlapShare() float64 {
	if m.Wall <= 0 {
		return 0
	}
	return float64(m.Overlap()) / float64(m.Wall)
}

// envelope carries one transfer through the stages; ack is non-nil only in
// blocking mode.
type envelope[T any] struct {
	t   T
	ack chan struct{}
}

// Run drives the three-stage pipeline to completion and returns its
// metrics. It returns the first stage error, if any; an early consumer stop
// is not an error (Metrics.Stopped reports it). An optional Drop callback
// receives the transfers stranded in flight by an early stop.
func Run[T any](next Next[T], sink Sink[T], cfg Config, drop ...Drop[T]) (*Metrics, error) {
	var dropFn Drop[T]
	if len(drop) > 0 {
		dropFn = drop[0]
	}
	discard := func(e envelope[T]) {
		if dropFn != nil {
			dropFn(e.t)
		}
	}
	depth := cfg.QueueDepth
	if depth < 1 {
		depth = 1
	}
	var chA, chB chan envelope[T]
	if cfg.NonBlocking {
		chA = make(chan envelope[T], depth)
		chB = make(chan envelope[T], 1)
	} else {
		chA = make(chan envelope[T])
		chB = make(chan envelope[T])
	}

	stop := make(chan struct{})
	var stopOnce sync.Once
	cancel := func() { stopOnce.Do(func() { close(stop) }) }

	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		cancel()
	}

	m := &Metrics{}
	start := time.Now()
	var wg sync.WaitGroup

	// Stage 1: producer (the DUT + acceleration unit analog).
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(chA)
		for {
			select {
			case <-stop:
				return
			default:
			}
			t0 := time.Now()
			t, ok, err := next()
			m.ProducerBusy += time.Since(t0)
			if err != nil {
				fail(err)
				return
			}
			if !ok {
				return
			}
			e := envelope[T]{t: t}
			if !cfg.NonBlocking {
				e.ack = make(chan struct{})
			}
			if cfg.NonBlocking {
				select {
				case chA <- e:
				default:
					m.Backpressure++
					select {
					case chA <- e:
					case <-stop:
						discard(e)
						return
					}
				}
			} else {
				select {
				case chA <- e:
				case <-stop:
					discard(e)
					return
				}
			}
			if e.ack != nil {
				// Step-and-compare: stall until the software side is done.
				select {
				case <-e.ack:
				case <-stop:
					return
				}
			}
		}
	}()

	// Stage 2: link (forwards transfers; its bounded output is the
	// in-flight queue's tail).
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(chB)
		for e := range chA {
			m.Transfers++
			// Occupancy left behind in the queue is backlog the producer
			// built up — sampled per forward so the mean reflects how full
			// the window ran over the whole stream.
			if q := len(chA); true {
				m.queueDepthSum += uint64(q)
				if q > m.QueuePeak {
					m.QueuePeak = q
				}
			}
			select {
			case chB <- e:
			case <-stop:
				discard(e)
				return
			}
		}
	}()

	// Stage 3: consumer (unpacker + checker analog).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for e := range chB {
			t0 := time.Now()
			stopReq, err := sink(e.t)
			m.ConsumerBusy += time.Since(t0)
			if e.ack != nil {
				close(e.ack)
			}
			if err != nil {
				fail(err)
				return
			}
			if stopReq {
				m.Stopped = true
				cancel()
				return
			}
		}
	}()

	wg.Wait()
	// Teardown drain: every stage has returned and both channels are closed,
	// so anything still queued was produced but never consumed.
	for e := range chA {
		discard(e)
	}
	for e := range chB {
		discard(e)
	}
	m.Wall = time.Since(start)
	errMu.Lock()
	err := firstErr
	errMu.Unlock()
	return m, err
}
