//go:build !race

package workload

// raceEnabled: see race_on_test.go.
const raceEnabled = false
