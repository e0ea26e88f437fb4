package cosim

import (
	"reflect"
	"testing"

	"repro/internal/bugs"
	"repro/internal/transport"
	"repro/internal/workload"
)

// refLogLen sums the compensation-log entries the half's reference models
// are holding.
func refLogLen(s *CheckerSession) int {
	n := 0
	for _, cc := range s.chk.Cores {
		n += cc.Ref.LogLen()
	}
	return n
}

// TestCompensationLogOnlyWhereReplayCanRevert: the REF logs compensation
// entries only once a Replay checkpoint exists. A non-Squash run and a
// difftestd session never checkpoint, so they must hold no log at all; an
// in-process Squash run checkpoints at every fusion window and keeps only
// the entries since the last one.
func TestCompensationLogOnlyWhereReplayCanRevert(t *testing.T) {
	inProcess := func(cfg string) (*CheckerSession, uint64) {
		p := executedParams(cfg, false)
		p.Workload = scaled(workload.LinuxBoot(), 10_000)
		r, err := newRunner(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.loop(); err != nil {
			t.Fatal(err)
		}
		if !r.res.Finished {
			t.Fatalf("%s run did not finish: %v", cfg, r.res.Mismatch)
		}
		return r.half, r.d.Instrs
	}
	if half, _ := inProcess("EB"); refLogLen(half) != 0 {
		t.Errorf("EB run holds %d compensation entries; nothing can ever revert them", refLogLen(half))
	}
	half, instrs := inProcess("EBINSD")
	if n := refLogLen(half); n == 0 || uint64(n) > instrs/4 {
		t.Errorf("EBINSD run holds %d compensation entries after %d instrs; want the last window's only", n, instrs)
	}

	served := make(chan *CheckerSession, 1)
	_, spec := startLoopbackServer(t, transport.ServerConfig{
		NewSession: func(h transport.Hello) (transport.SessionChecker, error) {
			s, err := NewSession(h)
			if err == nil {
				served <- s.(*CheckerSession)
			}
			return s, err
		},
	})
	p := remoteParams("EBINSD", spec)
	p.Workload = scaled(workload.LinuxBoot(), 10_000)
	if res := run(t, p); !res.Finished {
		t.Fatalf("loopback session did not finish: %v", res.Mismatch)
	}
	if n := refLogLen(<-served); n != 0 {
		t.Errorf("difftestd EBINSD session holds %d compensation entries; it never replays", n)
	}
}

// TestReplayRingOnlyWhereReplayRuns: the hardware-side replay ring is built
// and filled only where Replay can run — in-process, without DisableReplay.
// A remote run and a DisableReplay run get no ring and no Replay report, yet
// the same fused mismatch, since fusion tokens are numbered identically.
func TestReplayRingOnlyWhereReplayRuns(t *testing.T) {
	_, spec := startLoopbackServer(t, transport.ServerConfig{})
	b, ok := bugs.ByID("store-byte-drop")
	if !ok {
		t.Fatal(errBugMissing)
	}
	params := func(remote, disableReplay bool) Params {
		p := executedParams("EBINSD", true)
		p.Workload = scaled(workload.LinuxBoot(), 40_000)
		p.Seed = 3
		p.Hooks = b.Hooks(0)
		p.DisableReplay = disableReplay
		if remote {
			p.RemoteAddr = spec
		}
		return p
	}

	// The hardware side emits the same items, fusion tokens included, with
	// or without a ring.
	withRing, err := newRunner(params(false, false))
	if err != nil {
		t.Fatal(err)
	}
	var noRing []*runner
	for _, remote := range []bool{true, false} {
		r, err := newRunner(params(remote, !remote))
		if err != nil {
			t.Fatal(err)
		}
		noRing = append(noRing, r)
	}
	for cycle := 0; cycle < 20_000; cycle++ {
		recs, done := withRing.d.StepCycle()
		if done {
			break
		}
		want := withRing.hardwareSide(recs)
		for _, r := range noRing {
			recs, _ := r.d.StepCycle()
			if got := r.hardwareSide(recs); !reflect.DeepEqual(got, want) {
				t.Fatalf("cycle %d: items without a ring differ:\n got %v\nwant %v", cycle, got, want)
			}
		}
	}

	oracle := run(t, params(false, false))
	if oracle.Mismatch == nil || oracle.Replay == nil {
		t.Fatalf("in-process run: mismatch %v, replay %v; want both", oracle.Mismatch, oracle.Replay)
	}
	for _, tc := range []struct {
		name                  string
		remote, disableReplay bool
	}{
		{"remote", true, false},
		{"disable-replay", false, true},
	} {
		p := params(tc.remote, tc.disableReplay)
		r, err := newRunner(p)
		if err != nil {
			t.Fatal(err)
		}
		if r.rbuf != nil || r.rctls != nil {
			t.Errorf("%s: runner built a replay ring (%v) or controllers (%d)", tc.name, r.rbuf != nil, len(r.rctls))
		}
		res := run(t, p)
		if res.Replay != nil {
			t.Errorf("%s: Replay ran: %+v", tc.name, res.Replay)
		}
		if res.Mismatch == nil || *res.Mismatch != *oracle.Mismatch {
			t.Errorf("%s: mismatch %v, want the in-process %v", tc.name, res.Mismatch, oracle.Mismatch)
		}
	}
}
