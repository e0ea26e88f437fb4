package cosim

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/bugs"
	"repro/internal/event"
	"repro/internal/faultnet"
	"repro/internal/transport"
	"repro/internal/workload"
)

// The fault matrix: every injectable network fault crossed with a clean run
// and three library bugs, over a loopback difftestd with session resume.
// The gate is verdict equivalence — whatever the link does, the networked
// verdict must be byte-identical to the in-process one (core, seq, pc, kind,
// detail), with a balanced buffer pool across both wire ends. Failures print
// the faultnet seed and event journal, which replay the run exactly.

// faultCell describes one row of the matrix: how to mangle the link.
type faultCell struct {
	name      string
	seed      int64
	plan      faultnet.Plan // applied per the scope below
	firstOnly bool          // fault only the first connection; redials are clean
	wantRetry bool          // the clean workload must need at least one resume
}

func matrixCells() []faultCell {
	return []faultCell{
		// Benign chaos on every connection: traffic is delayed, split, or
		// slivered but never lost, so no resume is needed.
		{name: "delay", seed: 101, plan: faultnet.Plan{Seed: 101, PDelay: 0.3, MaxDelay: time.Millisecond}},
		{name: "partial-write", seed: 102, plan: faultnet.Plan{Seed: 102, PPartial: 0.5}},
		{name: "short-read", seed: 103, plan: faultnet.Plan{Seed: 103, PShortRead: 0.7}},
		// Destructive faults on the first connection (after the handshake);
		// the session must resume onto a clean redial.
		{name: "corrupt", seed: 104, firstOnly: true, wantRetry: true,
			plan: faultnet.Plan{Seed: 104, Script: []faultnet.Op{{Index: 5, Kind: faultnet.Corrupt, Offset: 37}}}},
		{name: "reset-mid-frame", seed: 105, firstOnly: true, wantRetry: true,
			plan: faultnet.Plan{Seed: 105, Script: []faultnet.Op{{Index: 4, Kind: faultnet.Reset, Offset: 9}}}},
		{name: "stall", seed: 106, firstOnly: true, wantRetry: true,
			plan: faultnet.Plan{Seed: 106, Script: []faultnet.Op{{Index: 4, Kind: faultnet.Stall}}}},
	}
}

// matrixWorkloads: the clean baseline plus three library bugs from distinct
// categories, all at a scale the checker detects them at.
func matrixWorkloads(t *testing.T) []string {
	t.Helper()
	ids := []string{"", "store-byte-drop", "mepc-misaligned-on-trap", "branch-not-taken"}
	for _, id := range ids[1:] {
		if _, ok := bugs.ByID(id); !ok {
			t.Fatalf("bug %s not in the library", id)
		}
	}
	return ids
}

// matrixParams builds the run for one (workload, remote) cell. Every
// parameter that shapes the event stream is pinned so the in-process
// reference and the networked run check the identical stream.
func matrixParams(t *testing.T, bugID, addr string) Params {
	t.Helper()
	p := executedParams("EBINSD", true)
	p.Workload = scaled(workload.LinuxBoot(), 40_000)
	p.Seed = 3
	if bugID != "" {
		b, ok := bugs.ByID(bugID)
		if !ok {
			t.Fatalf("bug %s not in the library", bugID)
		}
		p.Hooks = b.Hooks(0)
	}
	p.RemoteAddr = addr
	return p
}

// faultDialer routes connections through faultnet per the cell's scope and
// keeps every journal for failure output.
type faultDialer struct {
	cell faultCell

	mu       sync.Mutex
	dials    int
	journals []*faultnet.Journal
}

func (d *faultDialer) dial(spec string) (net.Conn, error) {
	sp, _ := transport.ParseSpec(spec)
	nc, err := net.Dial(sp.Scheme, sp.Addr)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	idx := d.dials
	d.dials++
	d.mu.Unlock()
	if d.cell.firstOnly && idx > 0 {
		return nc, nil
	}
	j := faultnet.NewJournal(d.cell.seed)
	d.mu.Lock()
	d.journals = append(d.journals, j)
	d.mu.Unlock()
	return faultnet.New(nc, d.cell.plan, j), nil
}

// log renders every journal for a failing cell: the seeds and fault
// sequences that replay the run.
func (d *faultDialer) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := ""
	for _, j := range d.journals {
		out += "\n" + j.String()
	}
	return out
}

func (d *faultDialer) release() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, j := range d.journals {
		j.Release()
	}
}

// matrixClientConfig is the resume-enabled client every matrix cell uses.
// StallTimeout must exceed the server's idle horizon so a stalled session is
// parked (and resumable) before the client gives up on the dead link.
func matrixClientConfig(d *faultDialer) transport.ClientConfig {
	return transport.ClientConfig{
		MaxRetries:   4,
		BackoffBase:  10 * time.Millisecond,
		BackoffMax:   100 * time.Millisecond,
		StallTimeout: 900 * time.Millisecond,
		JitterSeed:   11,
		Dial:         d.dial,
	}
}

// verdictEq asserts the networked verdict is byte-identical to the
// in-process reference.
func verdictEq(t *testing.T, ref, got *Result, context string) {
	t.Helper()
	if (ref.Mismatch == nil) != (got.Mismatch == nil) {
		t.Fatalf("%s: detection disagrees: in-process=%v networked=%v",
			context, ref.Mismatch, got.Mismatch)
	}
	if ref.Mismatch == nil {
		if !got.Finished || got.TrapCode != ref.TrapCode {
			t.Fatalf("%s: clean verdict drifted: finished=%v trap=%d, want trap=%d",
				context, got.Finished, got.TrapCode, ref.TrapCode)
		}
		return
	}
	rm, gm := ref.Mismatch, got.Mismatch
	if rm.Core != gm.Core || rm.Seq != gm.Seq || rm.PC != gm.PC || rm.Kind != gm.Kind {
		t.Fatalf("%s: mismatch identity differs:\n in-process: %v\n networked : %v",
			context, rm, gm)
	}
	if rm.Detail != gm.Detail {
		t.Fatalf("%s: diagnosis differs:\n in-process: %s\n networked : %s",
			context, rm.Detail, gm.Detail)
	}
}

// TestFaultMatrixVerdictEquivalence is the fault-matrix integration gate:
// {delay, partial-write, short-read, corrupt, reset-mid-frame, stall} ×
// {clean, 3 library bugs}, each networked run resuming through the injected
// faults and reaching the in-process verdict with a balanced pool.
func TestFaultMatrixVerdictEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("fault matrix is long")
	}
	_, spec := startLoopbackServer(t, transport.ServerConfig{
		IdleTimeout:  300 * time.Millisecond,
		ResumeWindow: time.Minute,
	})

	// In-process references, one per workload.
	refs := map[string]*Result{}
	for _, bugID := range matrixWorkloads(t) {
		refs[bugID] = run(t, matrixParams(t, bugID, ""))
	}

	for _, cell := range matrixCells() {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			for _, bugID := range matrixWorkloads(t) {
				bugID := bugID
				wl := bugID
				if wl == "" {
					wl = "clean"
				}
				t.Run(wl, func(t *testing.T) {
					gets0, puts0 := event.PoolStats()
					d := &faultDialer{cell: cell}
					p := matrixParams(t, bugID, spec)
					p.RemoteCfg = matrixClientConfig(d)
					res, err := Run(p)
					if err != nil {
						t.Fatalf("networked run: %v%s", err, d.log())
					}
					if res.Degraded {
						t.Fatalf("run degraded to in-process inside the matrix (faults should be survivable)%s", d.log())
					}
					verdictEq(t, refs[bugID], res, cell.name+"/"+wl+d.log())
					if cell.wantRetry && bugID == "" {
						if res.Exec == nil || res.Exec.Reconnects == 0 {
							t.Fatalf("destructive fault never forced a resume (metrics %+v)%s", res.Exec, d.log())
						}
					}
					d.release()
					gets1, puts1 := event.PoolStats()
					if gets1-gets0 != puts1-puts0 {
						t.Fatalf("pool imbalance across both wire ends: %d gets vs %d puts%s",
							gets1-gets0, puts1-puts0, d.log())
					}
				})
			}
		})
	}
}

// TestDegradedRunAfterBudgetExhaustion pins graceful degradation: the first
// connection dies mid-frame, every redial fails, and instead of erroring out
// the run is redone with in-process checking — correct verdict, Degraded
// marker, DegradedRuns=1, and a balanced pool.
func TestDegradedRunAfterBudgetExhaustion(t *testing.T) {
	_, spec := startLoopbackServer(t, transport.ServerConfig{
		ResumeWindow: time.Minute,
	})
	gets0, puts0 := event.PoolStats()

	var mu sync.Mutex
	dials := 0
	j := faultnet.NewJournal(42)
	dial := func(spec string) (net.Conn, error) {
		mu.Lock()
		idx := dials
		dials++
		mu.Unlock()
		if idx > 0 {
			return nil, errDialRefused
		}
		sp, _ := transport.ParseSpec(spec)
		nc, err := net.Dial(sp.Scheme, sp.Addr)
		if err != nil {
			return nil, err
		}
		return faultnet.New(nc, faultnet.Plan{
			Seed:   42,
			Script: []faultnet.Op{{Index: 4, Kind: faultnet.Reset, Offset: 11}},
		}, j), nil
	}

	p := matrixParams(t, "", spec)
	p.RemoteCfg = transport.ClientConfig{
		MaxRetries:  2,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
		JitterSeed:  13,
		Dial:        dial,
	}
	res, err := Run(p)
	if err != nil {
		t.Fatalf("budget exhaustion must degrade, not fail: %v\n%s", err, j)
	}
	if !res.Degraded {
		t.Fatalf("run not marked Degraded\n%s", j)
	}
	if res.Exec == nil || res.Exec.DegradedRuns != 1 {
		t.Fatalf("DegradedRuns != 1 (metrics %+v)\n%s", res.Exec, j)
	}
	ref := run(t, matrixParams(t, "", ""))
	verdictEq(t, ref, res, "degraded")

	j.Release()
	gets1, puts1 := event.PoolStats()
	if gets1-gets0 != puts1-puts0 {
		t.Fatalf("pool imbalance after degradation: %d gets vs %d puts", gets1-gets0, puts1-puts0)
	}
}

var errDialRefused = &net.OpError{Op: "dial", Err: &net.AddrError{Err: "induced dial failure"}}
