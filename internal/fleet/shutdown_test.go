package fleet

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// openFDs counts this process's open file descriptors, or -1 where
// /proc/self/fd does not exist.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// checkNoLeakedFDs polls for up to 2s until the fd count is back to base
// (skipped when base < 0).
func checkNoLeakedFDs(t *testing.T, base int) {
	t.Helper()
	fds := openFDs()
	for deadline := time.Now().Add(2 * time.Second); fds > base && time.Now().Before(deadline); fds = openFDs() {
		time.Sleep(10 * time.Millisecond)
	}
	if fds > base {
		t.Errorf("%d file descriptors open after Shutdown, %d before the fleet started", fds, base)
	}
}

// TestRouterShutdownLeavesNoLeaks serves one completed session, one parked
// session and one stats-poll connection left open through the router, then
// shuts the router and its shards down. The router must cut the held poll at
// once rather than wait out its idle bound, and no fleet or transport
// goroutine and no file descriptor may outlive the fleet.
func TestRouterShutdownLeavesNoLeaks(t *testing.T) {
	// A socket nobody closed is closed by its finalizer at the next GC,
	// which would hide the leak from the fd count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// The runtime's network poller keeps its own descriptors open for the
	// life of the process; open them before taking the baseline.
	warm, err := net.Listen("unix", filepath.Join(t.TempDir(), "warm.sock"))
	if err != nil {
		t.Fatal(err)
	}
	warm.Close()
	fdBase := openFDs()

	var shards []*transport.Server
	cfg := Config{StatsInterval: 20 * time.Millisecond, DialTimeout: 2 * time.Second}
	for i := 0; i < 2; i++ {
		srv, spec := startShard(t, transport.ServerConfig{NewSession: stubNewSession, Window: 4})
		shards = append(shards, srv)
		cfg.Shards = append(cfg.Shards, spec)
	}
	r, spec, stop := startRouter(t, cfg)

	session := func(finish bool) {
		cl, err := transport.Dial(spec, stubHello("", int64(len(shards))), routedCfg())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if _, err := cl.SendItems([]wire.Item{{Type: 0, Payload: []byte{1}}}); err != nil {
			t.Fatal(err)
		}
		if finish {
			if _, err := cl.Finish(); err != nil {
				t.Fatal(err)
			}
		}
	}
	session(true)  // completed: parked for final-verdict replay
	session(false) // hung up mid-stream: parked for resume
	waitFor(t, 5*time.Second, "both sessions parked", func() bool { return r.parkCount.Load() == 2 })

	poll := dialRaw(t, spec)
	var st transport.StatsInfo
	if ei, err := transport.Call(poll, transport.FrameStats, nil, transport.FrameStats, &st); ei != nil || err != nil || st.Parked != 2 {
		t.Fatalf("stats poll: %+v, %v, %v", st, ei, err)
	}

	start := time.Now()
	stop()
	if d := time.Since(start); d > time.Second {
		t.Errorf("router Shutdown took %v with a poll held open; it must close live connections at once", d)
	}
	if n := r.Sessions(); n != 0 {
		t.Errorf("%d session records survived Shutdown", n)
	}
	for _, srv := range shards {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shard shutdown: %v", err)
		}
		cancel()
	}
	poll.Close()
	checkNoLeakedGoroutines(t)
	checkNoLeakedFDs(t, fdBase)
}
