// Command difftestd is the networked verification server: it accepts
// concurrent DUT sessions over TCP, a Unix-domain socket, or a same-host
// shared-memory ring, gives each its own reference models and checker
// (built from the session handshake), and
// streams verdicts back over the framed transport. The per-session token
// window bounds how many data frames a client may have in flight — the
// networked analogue of Replay's token-managed buffering (paper §4.4).
//
// Usage:
//
//	difftestd -listen :9740                    # TCP
//	difftestd -listen unix:/tmp/difftestd.sock # Unix-domain socket
//	difftestd -listen shm:///dev/shm/difftest  # shared-memory ring rendezvous
//
// Clients connect with `difftest -remote <addr>`. SIGINT/SIGTERM drain
// gracefully: listeners close, in-flight sessions get -grace to finish, and
// the process reports its lifetime counters and buffer-pool balance.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cosim"
	"repro/internal/event"
	"repro/internal/transport"
)

func main() {
	var (
		listen = flag.String("listen", ":9740",
			"listen address: tcp://host:port (or bare host:port), unix:///path, or shm:///dir for the same-host shared-memory ring")
		tokens = flag.Int("tokens", transport.DefaultWindow,
			"token window per session (max in-flight data frames)")
		idle = flag.Duration("idle", transport.DefaultIdleTimeout,
			"park sessions with no inbound frame for this long and close their connection")
		maxSessions = flag.Int("max-sessions", 0,
			"cap concurrent sessions (0 = unlimited)")
		resumeWindow = flag.Duration("resume-window", transport.DefaultResumeWindow,
			"park broken and completed sessions this long for client resume")
		grace = flag.Duration("grace", 10*time.Second,
			"how long to let in-flight sessions finish on SIGINT/SIGTERM")
		verbose = flag.Bool("v", false, "log per-session lifecycle events")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "difftestd: ", log.LstdFlags)
	cfg := transport.ServerConfig{
		NewSession:   cosim.NewSession,
		Window:       *tokens,
		IdleTimeout:  *idle,
		MaxSessions:  *maxSessions,
		ResumeWindow: *resumeWindow,
	}
	if *verbose {
		cfg.Logf = logger.Printf
	}
	srv := transport.NewServer(cfg)

	l, err := transport.Listen(*listen)
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("listening on %s (window %d, idle %v, resume window %v, wire digest %#x)",
		l.Addr(), *tokens, *idle, *resumeWindow, event.FormatDigest())

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	select {
	case err := <-serveErr:
		if err != nil {
			logger.Fatal(err)
		}
	case <-ctx.Done():
		logger.Printf("signal received, draining (%d active, grace %v)", srv.ActiveSessions(), *grace)
		drainCtx, done := context.WithTimeout(context.Background(), *grace)
		err := srv.Shutdown(drainCtx)
		done()
		if err != nil {
			logger.Printf("shutdown: %v", err)
		}
	}

	served, mismatches, reaped := srv.Stats()
	parked, resumed := srv.ResumeStats()
	gets, puts := event.PoolStats()
	logger.Printf("served %d session(s), %d mismatch verdict(s), %d reaped after the resume window", served, mismatches, reaped)
	logger.Printf("resume: %d session(s) parked, %d resume(s) served", parked, resumed)
	logger.Printf("buffer pool: %d gets, %d puts, %d leaked", gets, puts, gets-puts)
	if gets != puts {
		fmt.Fprintln(os.Stderr, "difftestd: pooled buffers leaked")
		os.Exit(1)
	}
}
