package pipeline

import (
	"testing"
)

// transfers is how many no-op items one pipelineRun pushes through.
const transfers = 4096

// pipelineRun returns one Run of the three-stage pipeline over no-op
// transfers: what Run itself costs per transfer in each handshake mode,
// before any codec or checker work, so a scheduling regression in the stage
// plumbing is visible even when the heavier executed benchmarks hide it.
func pipelineRun(tb testing.TB, nonBlocking bool) func() {
	cfg := Config{NonBlocking: nonBlocking, QueueDepth: 16}
	return func() {
		n := 0
		next := func() (int, bool, error) {
			if n >= transfers {
				return 0, false, nil
			}
			n++
			return n, true, nil
		}
		got := 0
		sink := func(int) (bool, error) {
			got++
			return false, nil
		}
		m, err := Run(next, sink, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		if got != transfers || m.Transfers != transfers {
			tb.Fatalf("consumed %d transfers (metrics %d), want %d", got, m.Transfers, transfers)
		}
	}
}

func benchPipeline(b *testing.B, nonBlocking bool) {
	op := pipelineRun(b, nonBlocking)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.ReportMetric(float64(transfers)*float64(b.N)/b.Elapsed().Seconds(), "transfers/s")
}

func BenchmarkPipelineBlocking(b *testing.B)    { benchPipeline(b, false) }
func BenchmarkPipelineNonBlocking(b *testing.B) { benchPipeline(b, true) }

// TestAllocBudgetPipelineNonBlocking: a non-blocking Run's allocations do
// not grow with its transfers — 4096 cost about 21, where the blocking
// handshake spends about one per transfer.
func TestAllocBudgetPipelineNonBlocking(t *testing.T) {
	if n := testing.AllocsPerRun(20, pipelineRun(t, true)); n > 25 {
		t.Fatalf("non-blocking Run allocates %.0f/op, budget 25", n)
	}
}
