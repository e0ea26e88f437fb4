package cosim

import (
	"testing"

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
