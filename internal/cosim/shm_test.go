package cosim

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bugs"
	"repro/internal/event"
	"repro/internal/transport"
	"repro/internal/workload"
)

// startShmServer is startLoopbackServer over the shared-memory ring
// transport: the same production server (cosim.NewSession wired into
// transport.Server), listening on an shm rendezvous directory in the test's
// temp dir. Skips on platforms without mmap.
func startShmServer(t testing.TB, cfg transport.ServerConfig) (*transport.Server, string) {
	t.Helper()
	spec := "shm://" + filepath.Join(t.TempDir(), "rings") + "?ring=1048576"
	l, err := transport.Listen(spec)
	if err != nil {
		t.Skipf("shm transport unavailable: %v", err)
	}
	cfg.NewSession = NewSession
	srv := transport.NewServer(cfg)
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

// TestShmLoopbackSession drives one clean session and one injected-bug
// session over the shared-memory ring: the clean run must finish, the bug
// must come back with the checker's diagnosis, and the pooled-buffer balance
// must hold across both ends — the shm twin of the Unix-socket loopback
// gate.
func TestShmLoopbackSession(t *testing.T) {
	srv, spec := startShmServer(t, transport.ServerConfig{})
	gets0, puts0 := event.PoolStats()

	clean := run(t, remoteParams("EBINSD", spec))
	if !clean.Finished || clean.Mismatch != nil {
		t.Errorf("clean session: finished=%v mismatch=%v", clean.Finished, clean.Mismatch)
	}
	if clean.Exec == nil {
		t.Fatal("shm run carried no pipeline metrics")
	}

	b, ok := bugs.ByID("store-byte-drop")
	if !ok {
		t.Fatal("bug store-byte-drop not in the library")
	}
	p := remoteParams("EBINSD", spec)
	p.Workload = scaled(workload.LinuxBoot(), 40_000)
	p.Seed = 3
	p.Hooks = b.Hooks(0)
	buggy := run(t, p)
	if buggy.Mismatch == nil {
		t.Error("injected bug escaped over the shm ring")
	} else if buggy.Mismatch.Detail == "" {
		t.Error("shm mismatch verdict lost the checker's diagnosis")
	}

	gets1, puts1 := event.PoolStats()
	if gets1-gets0 != puts1-puts0 {
		t.Errorf("pool imbalance across the shm link: %d gets vs %d puts",
			gets1-gets0, puts1-puts0)
	}
	served, mismatches, _ := srv.Stats()
	if served < 2 || mismatches != 1 {
		t.Errorf("server stats: served=%d mismatches=%d", served, mismatches)
	}
}

// TestCompareModesShmLoopback pins the -shm comparison column: with
// ShmLoopback set, every configuration row carries a finished shm result and
// the optimized configurations beat the shm baseline.
func TestCompareModesShmLoopback(t *testing.T) {
	p := executedParams("EBINSD", true)
	p.Workload = scaled(workload.LinuxBoot(), 10_000)
	p.ShmLoopback = true
	cmp, err := CompareModes(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Rows) != len(ConfigNames()) {
		t.Fatalf("%d rows, want %d", len(cmp.Rows), len(ConfigNames()))
	}
	for i, row := range cmp.Rows {
		if row.Shm == nil {
			t.Fatalf("row %s has no shm result", row.Config)
		}
		if !row.Shm.Finished || row.Shm.Mismatch != nil {
			t.Errorf("shm row %s: finished=%v mismatch=%v",
				row.Config, row.Shm.Finished, row.Shm.Mismatch)
		}
		if row.Shm.Exec == nil {
			t.Errorf("shm row %s carried no pipeline metrics", row.Config)
		}
		if i > 0 && cmp.ShmSpeedup(i) <= 0 {
			t.Errorf("shm speedup for %s = %v, want > 0", row.Config, cmp.ShmSpeedup(i))
		}
	}
}
