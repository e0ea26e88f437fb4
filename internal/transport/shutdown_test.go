package transport

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

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

// checkShutdownLeaks polls for up to 2s until no goroutine but the caller's
// has a transport or fleet frame in its stack and the fd count is back to
// fdBase (skipped when fdBase < 0), then reports what is left.
func checkShutdownLeaks(t *testing.T, fdBase int) {
	t.Helper()
	var leaked [][]byte
	fds := 0
	stacks := make([]byte, 1<<20)
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		buf := stacks[:runtime.Stack(stacks, true)]
		leaked = leaked[:0]
		// The first stack is this goroutine's own.
		for _, g := range bytes.Split(buf, []byte("\n\n"))[1:] {
			if bytes.Contains(g, []byte("repro/internal/transport.")) ||
				bytes.Contains(g, []byte("repro/internal/fleet.")) {
				leaked = append(leaked, g)
			}
		}
		fds = openFDs()
		if len(leaked) == 0 && fds <= fdBase || time.Now().After(deadline) {
			break
		}
	}
	for _, g := range leaked {
		t.Errorf("goroutine outlived Shutdown:\n%s", g)
	}
	if fds > fdBase {
		t.Errorf("%d file descriptors open after Shutdown, %d before the server started", fds, fdBase)
	}
}

// TestServerShutdownLeavesNoLeaks serves one completed session, one parked
// session and one stats-poll connection left open, then shuts the server
// down: no transport goroutine and no file descriptor may outlive it.
func TestServerShutdownLeavesNoLeaks(t *testing.T) {
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

	srv := NewServer(ServerConfig{
		NewSession:   stubSessions(func() *stubChecker { return &stubChecker{} }),
		ResumeWindow: time.Minute,
	})
	spec := "unix:" + filepath.Join(t.TempDir(), "difftestd.sock")
	l, err := Listen(spec)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()

	session := func(finish bool) {
		cl, err := Dial(spec, testHello(), ClientConfig{})
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
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if parked, _ := srv.ResumeStats(); parked == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sessions were never parked")
		}
	}

	poll, err := DialFrame(spec, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer poll.Close()
	poll.SetReadTimeout(5 * time.Second)
	var st StatsInfo
	if ei, err := Call(poll, FrameStats, nil, FrameStats, &st); ei != nil || err != nil || st.Parked != 2 {
		t.Fatalf("stats poll: %+v, %v, %v", st, ei, err)
	}

	// The held poll keeps the drain waiting until the grace window ends.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown with a poll held open = %v, want the grace window to expire", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve after Shutdown = %v", err)
	}
	poll.Close()
	checkShutdownLeaks(t, fdBase)
}
