package cosim

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/bugs"
	"repro/internal/event"
	"repro/internal/transport"
	"repro/internal/workload"
)

// startLoopbackServer runs a difftestd-equivalent server (the production
// cosim.NewSession wired into transport.Server) on a Unix socket in the
// test's temp dir, returning the server and its dial spec. testing.TB so
// the remote loopback benchmarks share it.
func startLoopbackServer(t testing.TB, cfg transport.ServerConfig) (*transport.Server, string) {
	t.Helper()
	if cfg.NewSession == nil {
		cfg.NewSession = NewSession
	}
	srv := transport.NewServer(cfg)
	spec := "unix:" + filepath.Join(t.TempDir(), "difftestd.sock")
	l, err := transport.Listen(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(l)
	}()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("server shutdown: %v", err)
		}
		<-done
	})
	return srv, spec
}

// remoteParams is executedParams pointed at a loopback server.
func remoteParams(cfg, addr string) Params {
	p := executedParams(cfg, true)
	p.RemoteAddr = addr
	return p
}

// TestLoopbackCleanAndBugSessions is the integration gate from the issue:
// one clean session and one injected-bug session run concurrently against a
// single server over a Unix socket; the clean one must finish, the buggy one
// must carry the checker's diagnosis back, and the buffer pool must balance
// across both ends (client and server live in this one process, so a single
// PoolStats delta covers both sides of the wire).
func TestLoopbackCleanAndBugSessions(t *testing.T) {
	srv, spec := startLoopbackServer(t, transport.ServerConfig{})
	gets0, puts0 := event.PoolStats()

	var wg sync.WaitGroup
	var clean, buggy *Result
	var cleanErr, buggyErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		p := remoteParams("EBINSD", spec)
		clean, cleanErr = Run(p)
	}()
	go func() {
		defer wg.Done()
		b, ok := bugs.ByID("store-byte-drop")
		if !ok {
			buggyErr = errBugMissing
			return
		}
		p := remoteParams("EBINSD", spec)
		p.Workload = scaled(workload.LinuxBoot(), 40_000)
		p.Seed = 3
		p.Hooks = b.Hooks(0)
		buggy, buggyErr = Run(p)
	}()
	wg.Wait()

	if cleanErr != nil {
		t.Fatalf("clean session: %v", cleanErr)
	}
	if buggyErr != nil {
		t.Fatalf("bug session: %v", buggyErr)
	}
	if !clean.Finished || clean.Mismatch != nil {
		t.Errorf("clean session: finished=%v mismatch=%v", clean.Finished, clean.Mismatch)
	}
	if buggy.Mismatch == nil {
		t.Error("injected bug escaped over the loopback")
	} else if buggy.Mismatch.Detail == "" {
		t.Error("remote mismatch verdict lost the checker's diagnosis")
	}

	gets1, puts1 := event.PoolStats()
	if gets1-gets0 != puts1-puts0 {
		t.Errorf("pool imbalance across both wire ends: %d gets vs %d puts",
			gets1-gets0, puts1-puts0)
	}
	served, mismatches, _ := srv.Stats()
	if served < 1 || mismatches != 1 {
		t.Errorf("server stats: served=%d mismatches=%d", served, mismatches)
	}
}

var errBugMissing = errors.New("bug store-byte-drop not in the library")

// TestLoopbackConcurrentSessions drives at least four concurrent DUT
// sessions through one server — the multi-session acceptance criterion —
// with per-session verdicts and a balanced pool at the end.
func TestLoopbackConcurrentSessions(t *testing.T) {
	const sessions = 5
	srv, spec := startLoopbackServer(t, transport.ServerConfig{Window: 8})
	gets0, puts0 := event.PoolStats()

	var wg sync.WaitGroup
	results := make([]*Result, sessions)
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := remoteParams([]string{"Z", "EB", "EBIN", "EBINSD", "EBINSD"}[i], spec)
			p.Seed = int64(7 + i) // distinct programs per session
			results[i], errs[i] = Run(p)
		}(i)
	}
	wg.Wait()
	for i := 0; i < sessions; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if !results[i].Finished || results[i].Mismatch != nil {
			t.Errorf("session %d: finished=%v mismatch=%v",
				i, results[i].Finished, results[i].Mismatch)
		}
		if results[i].Exec == nil {
			t.Errorf("session %d: no pipeline metrics from the remote run", i)
		}
	}

	gets1, puts1 := event.PoolStats()
	if gets1-gets0 != puts1-puts0 {
		t.Errorf("pool imbalance after %d sessions: %d gets vs %d puts",
			sessions, gets1-gets0, puts1-puts0)
	}
	served, _, _ := srv.Stats()
	if served != sessions {
		t.Errorf("server served %d sessions, want %d", served, sessions)
	}
}

// TestLoopbackTokenWindowStalls pins the backpressure measurement: with a
// one-token window every in-flight frame must wait for its credit, so a
// multi-packet stream necessarily records token stalls.
func TestLoopbackTokenWindowStalls(t *testing.T) {
	_, spec := startLoopbackServer(t, transport.ServerConfig{Window: 1})
	p := remoteParams("EB", spec)
	res := run(t, p)
	if !res.Finished {
		t.Fatal("session did not finish")
	}
	if res.Exec == nil || res.Exec.TokenStalls == 0 {
		t.Fatalf("1-token window recorded no stalls (metrics %+v)", res.Exec)
	}
}

// TestRemoteCancellation pins the cooperative-cancel satellite: a cancelled
// context stops a remote run mid-stream, the run surfaces the context error,
// and every pooled buffer drains through the release paths.
func TestRemoteCancellation(t *testing.T) {
	_, spec := startLoopbackServer(t, transport.ServerConfig{})
	gets0, puts0 := event.PoolStats()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the run must stop on its first poll
	p := remoteParams("EBINSD", spec)
	p.Ctx = ctx
	if _, err := Run(p); err == nil {
		t.Fatal("cancelled run reported success")
	}

	gets1, puts1 := event.PoolStats()
	if gets1-gets0 != puts1-puts0 {
		t.Errorf("pool imbalance after cancellation: %d gets vs %d puts",
			gets1-gets0, puts1-puts0)
	}
}
