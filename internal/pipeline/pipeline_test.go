package pipeline

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// stream returns a Next producing 0..n-1.
func stream(n int) Next[int] {
	i := 0
	return func() (int, bool, error) {
		if i >= n {
			return 0, false, nil
		}
		v := i
		i++
		return v, true, nil
	}
}

func TestDeliversAllInOrder(t *testing.T) {
	for _, nb := range []bool{false, true} {
		var got []int
		m, err := Run(stream(1000), func(v int) (bool, error) {
			got = append(got, v)
			return false, nil
		}, Config{NonBlocking: nb, QueueDepth: 8})
		if err != nil {
			t.Fatalf("nonblocking=%v: %v", nb, err)
		}
		if len(got) != 1000 || m.Transfers != 1000 {
			t.Fatalf("nonblocking=%v: delivered %d (link saw %d), want 1000", nb, len(got), m.Transfers)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("nonblocking=%v: out of order at %d: got %d", nb, i, v)
			}
		}
		if m.Stopped {
			t.Errorf("nonblocking=%v: spurious Stopped", nb)
		}
	}
}

// TestBlockingSerializes: with the step-and-compare handshake, at most one
// transfer may ever be past the producer and not yet fully checked.
func TestBlockingSerializes(t *testing.T) {
	var inflight, maxSeen atomic.Int64
	next := stream(200)
	wrapped := func() (int, bool, error) {
		v, ok, err := next()
		if ok {
			if n := inflight.Add(1); n > maxSeen.Load() {
				maxSeen.Store(n)
			}
		}
		return v, ok, err
	}
	_, err := Run(wrapped, func(int) (bool, error) {
		defer inflight.Add(-1)
		return false, nil
	}, Config{NonBlocking: false})
	if err != nil {
		t.Fatal(err)
	}
	if maxSeen.Load() > 1 {
		t.Errorf("blocking mode had %d transfers in flight, want ≤1", maxSeen.Load())
	}
}

// TestNonBlockingBoundsInFlight: the queue bound must hold (QueueDepth plus
// the transfers held by the link and consumer stages), and a slow consumer
// must register backpressure.
func TestNonBlockingBoundsInFlight(t *testing.T) {
	const depth = 4
	var inflight, maxSeen atomic.Int64
	next := stream(300)
	wrapped := func() (int, bool, error) {
		v, ok, err := next()
		if ok {
			if n := inflight.Add(1); n > maxSeen.Load() {
				maxSeen.Store(n)
			}
		}
		return v, ok, err
	}
	m, err := Run(wrapped, func(int) (bool, error) {
		time.Sleep(50 * time.Microsecond)
		inflight.Add(-1)
		return false, nil
	}, Config{NonBlocking: true, QueueDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	// chA(depth) + chB(1) + link in hand + consumer in hand + producer in hand.
	if limit := int64(depth + 4); maxSeen.Load() > limit {
		t.Errorf("in-flight peaked at %d, want ≤ %d", maxSeen.Load(), limit)
	}
	if m.Backpressure == 0 {
		t.Error("slow consumer produced no backpressure")
	}
}

func TestEarlyStopCancelsProducer(t *testing.T) {
	produced := 0
	next := func() (int, bool, error) {
		produced++
		return produced, true, nil // endless stream
	}
	m, err := Run(next, func(v int) (bool, error) {
		return v >= 10, nil
	}, Config{NonBlocking: true, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Stopped {
		t.Fatal("consumer stop not reported")
	}
	if produced > 10+16 {
		t.Errorf("producer ran %d steps after a stop at 10", produced)
	}
}

func TestErrorPropagation(t *testing.T) {
	prodErr := errors.New("producer broke")
	_, err := Run(func() (int, bool, error) {
		return 0, false, prodErr
	}, func(int) (bool, error) { return false, nil }, Config{NonBlocking: true})
	if !errors.Is(err, prodErr) {
		t.Errorf("producer error: got %v", err)
	}

	consErr := errors.New("consumer broke")
	_, err = Run(stream(100), func(v int) (bool, error) {
		if v == 5 {
			return false, consErr
		}
		return false, nil
	}, Config{NonBlocking: true, QueueDepth: 2})
	if !errors.Is(err, consErr) {
		t.Errorf("consumer error: got %v", err)
	}
}

// TestMeasuredOverlap is the core executed-mode property: with real work on
// both sides, the non-blocking pipeline must overlap the stages (wall <
// producer busy + consumer busy), while the blocking handshake serializes
// them. Busy-spin work keeps the comparison scheduler-friendly.
func TestMeasuredOverlap(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 || runtime.NumCPU() < 2 {
		t.Skip("needs ≥2 CPUs to observe overlap")
	}
	spin := func(d time.Duration) {
		for end := time.Now().Add(d); time.Now().Before(end); {
		}
	}
	runWork := func(nb bool) *Metrics {
		next := stream(40)
		m, err := Run(func() (int, bool, error) {
			v, ok, err := next()
			if ok {
				spin(500 * time.Microsecond)
			}
			return v, ok, err
		}, func(int) (bool, error) {
			spin(500 * time.Microsecond)
			return false, nil
		}, Config{NonBlocking: nb, QueueDepth: 8})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	// One blocking/non-blocking pair can flip under CPU contention, so up to
	// three interleaved attempts run; one showing both overlap and a
	// wall-clock win passes.
	for attempt := 0; attempt < 3; attempt++ {
		blocking := runWork(false)
		streaming := runWork(true)
		t.Logf("attempt %d blocking: wall=%v prod=%v cons=%v overlap=%.0f%%", attempt,
			blocking.Wall, blocking.ProducerBusy, blocking.ConsumerBusy, blocking.OverlapShare()*100)
		t.Logf("attempt %d streaming: wall=%v prod=%v cons=%v overlap=%.0f%% backpressure=%d", attempt,
			streaming.Wall, streaming.ProducerBusy, streaming.ConsumerBusy, streaming.OverlapShare()*100, streaming.Backpressure)
		if streaming.Overlap() > 0 && streaming.Wall < blocking.Wall {
			return
		}
	}
	t.Error("in 3 attempts the non-blocking pipeline never both overlapped its stages and beat the blocking wall time")
}

func ExampleRun() {
	next := stream(3)
	sum := 0
	m, _ := Run(next, func(v int) (bool, error) {
		sum += v
		return false, nil
	}, Config{NonBlocking: true, QueueDepth: 2})
	fmt.Println(sum, m.Transfers)
	// Output: 3 3
}
