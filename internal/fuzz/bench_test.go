package fuzz

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/cosim"
	"repro/internal/workload"
)

// mutation returns one mutation-engine draw: an operator plus the validation
// pass that keeps every child inside the legal profile space. It is the op
// BenchmarkFuzzMutations times and TestAllocBudgetFuzzMutations pins. The
// mutator must stay trivially cheap next to an evaluation (a full
// co-simulated run), so the campaign's cost is always the runs, never the
// planning.
func mutation() func() {
	rng := rand.New(rand.NewSource(1))
	parent := workload.LinuxBoot()
	parent.Name = fuzzName
	partner := workload.KVM()
	partner.Name = fuzzName
	other := &Entry{Seed: 2, Profile: partner}
	return func() { mutate(rng, parent, 1, other) }
}

// corpusMerge returns one sync-point fold of a 64-entry campaign shard into
// a fresh master corpus — the fleet fan-out merge path.
func corpusMerge() func() {
	prof := workload.LinuxBoot()
	prof.Name = fuzzName
	rng := rand.New(rand.NewSource(2))
	shard := NewCorpus()
	for i := 0; i < 64; i++ {
		fs := make([]uint32, 0, 40)
		for j := 0; j < 40; j++ {
			fs = append(fs, feature(1+rng.Intn(5), rng.Intn(64), uint64(rng.Intn(1<<16))))
		}
		sortU32(fs)
		shard.Observe(Entry{Seed: int64(i), Profile: prof, Features: fs, Parent: -1, Op: opReseed})
	}
	return func() { NewCorpus().Merge(shard) }
}

// featureExtract returns one discretization of a run's coverage snapshot
// into its sorted feature signature.
func featureExtract() func() {
	cov := &checker.Coverage{}
	rng := rand.New(rand.NewSource(3))
	for i := range cov.Kind {
		cov.Kind[i] = uint64(rng.Intn(1 << 12))
	}
	for i := range cov.Pair {
		cov.Pair[i] = uint64(rng.Intn(1 << 8))
	}
	for i := range cov.Prox {
		cov.Prox[i] = uint64(rng.Intn(1 << 10))
	}
	cov.TrapMMIOAdj = 37
	res := &cosim.Result{Coverage: cov}
	res.Fusion.Windows, res.Fusion.Breaks = 1000, 41
	return func() { Features(res) }
}

func BenchmarkFuzzMutations(b *testing.B) {
	op := mutation()
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "mutations/s")
}

func BenchmarkCorpusMerge(b *testing.B) {
	op := corpusMerge()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkFeatureExtract(b *testing.B) {
	op := featureExtract()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// A mutation allocates nothing on average. The merge and extraction budgets
// hold today's counts (29 and 4) with the slack of the relative gate they
// replace.
func TestAllocBudgetFuzzMutations(t *testing.T) {
	if n := testing.AllocsPerRun(1000, mutation()); n > 0 {
		t.Fatalf("mutation allocates %.0f/op, budget 0", n)
	}
}

func TestAllocBudgetCorpusMerge(t *testing.T) {
	if n := testing.AllocsPerRun(100, corpusMerge()); n > 36 {
		t.Fatalf("corpus merge allocates %.0f/op, budget 36", n)
	}
}

func TestAllocBudgetFeatureExtract(t *testing.T) {
	if n := testing.AllocsPerRun(1000, featureExtract()); n > 5 {
		t.Fatalf("feature extraction allocates %.0f/op, budget 5", n)
	}
}
