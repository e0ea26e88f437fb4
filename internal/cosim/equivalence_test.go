package cosim

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bugs"
	"repro/internal/checker"
	"repro/internal/dut"
	"repro/internal/event"
	"repro/internal/fleet"
	"repro/internal/transport"
	"repro/internal/workload"
)

// The verdict-equivalence table: whatever link carries the stream from the
// hardware side to the checker, the verdict must be the one a sequential
// in-process run reaches. Each case (clean, or one library bug) is run once
// sequentially per configuration — the oracle — and every row of the table
// runs it again over its link and compares:
//   - the detection outcome, and on a clean run the trap code;
//   - on detection the mismatch identity (core, kind, seq, pc) and the
//     checker's diagnosis text;
//   - in-process, the Replay report's instruction-level identity;
//   - over a network, that the session never degraded to in-process;
//   - the buffer pool balance across the run, both wire ends included.
//
// The fault-schedule axis lives in the fault matrix (faultmatrix_test.go).

// The rows, one top-level test per link so each keeps its name across
// changes to the others: executed, unix and shm for {Z, EBINSD}; routed for
// EBINSD; dual-core executed, clean only, for {EBIN, EBINSD}. With the clean
// case and the 19 library bugs that is 142 comparisons against 42 oracles.

// TestExecutedBugEquivalence: the in-process executed pipeline.
func TestExecutedBugEquivalence(t *testing.T) {
	runEqLink(t, eqLink{cfgs: []string{"Z", "EBINSD"}})
}

// TestRemoteBugEquivalence: a loopback difftestd over a unix socket.
func TestRemoteBugEquivalence(t *testing.T) {
	runEqLink(t, eqLink{cfgs: []string{"Z", "EBINSD"}, start: func(t *testing.T) (string, transport.ClientConfig) {
		_, spec := startLoopbackServer(t, transport.ServerConfig{})
		return spec, transport.ClientConfig{}
	}})
}

// TestShmBugEquivalence: a loopback difftestd over a shared-memory ring.
func TestShmBugEquivalence(t *testing.T) {
	runEqLink(t, eqLink{cfgs: []string{"Z", "EBINSD"}, start: func(t *testing.T) (string, transport.ClientConfig) {
		_, spec := startShmServer(t, transport.ServerConfig{})
		return spec, transport.ClientConfig{}
	}})
}

// TestRoutedBugEquivalence: a fleet.Router over two unix difftestd shards,
// with a resume client.
func TestRoutedBugEquivalence(t *testing.T) {
	runEqLink(t, eqLink{cfgs: []string{"EBINSD"}, start: startRoutedFleet})
}

// TestExecutedDualCoreFanout: a dual-core in-process run, whose two cores'
// streams interleave into the one checking goroutine.
func TestExecutedDualCoreFanout(t *testing.T) {
	runEqLink(t, eqLink{cfgs: []string{"EBIN", "EBINSD"}, dual: true})
}

// eqLink is one link of the table, a row per configuration.
type eqLink struct {
	cfgs []string
	dual bool // dual-core DUT, clean case only
	// start brings up the link's far end, torn down at the row's cleanup,
	// and returns the address and client config to run against; nil runs
	// in-process.
	start func(t *testing.T) (string, transport.ClientConfig)
}

func (l eqLink) cases() []string {
	if l.dual {
		return []string{""}
	}
	return eqCases()
}

// eqCases is the clean run ("") plus every library bug. Under -race the
// table keeps every row but only the clean case and two bugs from distinct
// categories (a store corruption and a trap-CSR corruption): the race
// detector watches the links' goroutines, which every case exercises alike,
// and the full sweep runs in every plain `go test`.
func eqCases() []string {
	if raceEnabled {
		return []string{"", "store-byte-drop", "mepc-misaligned-on-trap"}
	}
	ids := []string{""}
	for _, b := range bugs.Library() {
		ids = append(ids, b.ID)
	}
	return ids
}

// eqParams is one run of the table: LinuxBoot, 40k instructions, seed 3 —
// a scale at which the checker detects most of the library.
func eqParams(t *testing.T, cfg, bugID string, dual bool) Params {
	p := executedParams(cfg, false)
	p.Workload = scaled(workload.LinuxBoot(), 40_000)
	p.Seed = 3
	if dual {
		p.DUT = dut.XiangShanDefaultDual()
	}
	if bugID != "" {
		b, ok := bugs.ByID(bugID)
		if !ok {
			t.Fatalf("bug %s not in the library", bugID)
		}
		p.Hooks = b.Hooks(0)
	}
	return p
}

// eqRun names one run of the table: a configuration and a case, single- or
// dual-core. It keys the oracles.
type eqRun struct {
	cfg, bug string
	dual     bool
}

// eqOracles holds every sequential oracle a link has asked for, so each
// run is made once per package run however many links compare against it.
var eqOracles = map[eqRun]*Result{}

// oraclesFor makes the link's missing oracles side by side on two workers:
// they share nothing, and once they are done the link's rows run one at a
// time, so each row's pool delta is its own.
func oraclesFor(t *testing.T, link eqLink) map[eqRun]*Result {
	t.Helper()
	var keys []eqRun
	var ps []Params
	for _, cfg := range link.cfgs {
		for _, bug := range link.cases() {
			k := eqRun{cfg, bug, link.dual}
			if _, ok := eqOracles[k]; !ok {
				keys = append(keys, k)
				ps = append(ps, eqParams(t, cfg, bug, link.dual))
			}
		}
	}
	res, err := RunConcurrent(ps, 2)
	if err != nil {
		t.Fatalf("sequential oracle: %v", err)
	}
	for i, k := range keys {
		eqOracles[k] = res[i]
	}
	return eqOracles
}

// runEqLink runs one link's rows against the shared sequential oracles.
func runEqLink(t *testing.T, link eqLink) {
	if testing.Short() {
		t.Skip("bug-library sweep is long")
	}
	oracles := oraclesFor(t, link)
	for _, cfg := range link.cfgs {
		t.Run(cfg, func(t *testing.T) {
			var addr string
			var rcfg transport.ClientConfig
			if link.start != nil {
				addr, rcfg = link.start(t)
			}
			for _, bug := range link.cases() {
				name := bug
				if name == "" {
					name = "clean"
				}
				t.Run(name, func(t *testing.T) {
					want := oracles[eqRun{cfg, bug, link.dual}]
					p := eqParams(t, cfg, bug, link.dual)
					p.Opt.Executed = true
					p.RemoteAddr, p.RemoteCfg = addr, rcfg
					gets0, puts0 := event.PoolStats()
					got := run(t, p)
					checkVerdictEq(t, want, got)
					if addr == "" {
						checkReplayEq(t, want, got)
					} else if got.Degraded {
						t.Error("networked run degraded to in-process checking")
					}
					checkPoolBalance(t, gets0, puts0)
				})
			}
		})
	}
}

// checkVerdictEq compares a link's verdict with the oracle's: detection,
// then the clean trap code or the full mismatch identity and diagnosis.
func checkVerdictEq(t *testing.T, want, got *Result) {
	t.Helper()
	switch {
	case (want.Mismatch == nil) != (got.Mismatch == nil):
		t.Fatalf("detection disagrees: sequential=%v link=%v", want.Mismatch, got.Mismatch)
	case want.Mismatch == nil:
		if !got.Finished || got.TrapCode != want.TrapCode {
			t.Fatalf("clean verdict drifted: finished=%v trap=%d, want trap=%d",
				got.Finished, got.TrapCode, want.TrapCode)
		}
	default:
		checkMismatchEq(t, "mismatch", want.Mismatch, got.Mismatch)
	}
}

// checkReplayEq compares the in-process Replay diagnosis with the oracle's.
func checkReplayEq(t *testing.T, want, got *Result) {
	t.Helper()
	if (want.Replay == nil) != (got.Replay == nil) {
		t.Fatalf("replay disagrees: sequential=%v link=%v", want.Replay != nil, got.Replay != nil)
	}
	if want.Replay == nil {
		return
	}
	if want.Replay.Outcome != got.Replay.Outcome {
		t.Fatalf("replay outcome disagrees: sequential=%d link=%d", want.Replay.Outcome, got.Replay.Outcome)
	}
	w, g := want.Replay.Detailed, got.Replay.Detailed
	if (w == nil) != (g == nil) {
		t.Fatalf("replay localisation disagrees: sequential=%v link=%v", w, g)
	}
	if w != nil {
		checkMismatchEq(t, "replay root", w, g)
	}
}

func checkMismatchEq(t *testing.T, what string, want, got *checker.Mismatch) {
	t.Helper()
	if want.Core != got.Core || want.Kind != got.Kind || want.Seq != got.Seq ||
		want.PC != got.PC || want.Detail != got.Detail {
		t.Errorf("%s differs:\n sequential: %v\n link      : %v", what, want, got)
	}
}

// checkPoolBalance asserts every pooled buffer taken since the snapshot is
// back in the pool: client and server share this process, so one delta
// covers both wire ends.
func checkPoolBalance(t *testing.T, gets0, puts0 uint64) {
	t.Helper()
	gets1, puts1 := event.PoolStats()
	if gets1-gets0 != puts1-puts0 {
		t.Errorf("pool imbalance: %d gets vs %d puts", gets1-gets0, puts1-puts0)
	}
}

// startRoutedFleet serves a fleet.Router over two loopback difftestd shards
// and returns its address with the resume-enabled client config a routed
// session needs (migration is a resume).
func startRoutedFleet(t *testing.T) (string, transport.ClientConfig) {
	var shards []string
	for i := 0; i < 2; i++ {
		_, spec := startLoopbackServer(t, transport.ServerConfig{Window: 8})
		shards = append(shards, spec)
	}
	r, err := fleet.NewRouter(fleet.Config{
		Shards: shards,
		// No shard dies here, so no health poll is needed; a poll's pooled
		// frame buffers would otherwise cross a row's pool snapshot.
		StatsInterval: time.Hour,
		DialTimeout:   2 * time.Second,
		ResumeWindow:  time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := "unix:" + filepath.Join(t.TempDir(), "router.sock")
	l, err := transport.Listen(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Serve(l)
	}()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := r.Shutdown(ctx); err != nil {
			t.Errorf("router shutdown: %v", err)
		}
		<-done
	})
	return spec, transport.ClientConfig{
		MaxRetries:   6,
		BackoffBase:  5 * time.Millisecond,
		BackoffMax:   50 * time.Millisecond,
		StallTimeout: 2 * time.Second,
		JitterSeed:   17,
	}
}
