//go:build race

package workload

// raceEnabled reports whether this test binary runs under the race
// detector, so single-goroutine sweeps can leave it to the plain test run.
const raceEnabled = true
