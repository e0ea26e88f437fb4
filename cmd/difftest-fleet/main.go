// Command difftest-fleet fronts N difftestd shards with one stateless
// router: clients dial it exactly like a single difftestd (`difftest
// -remote <router>`), and the router places each session on a shard by
// rendezvous hashing, enforces per-tenant quotas and fair-share token
// windows, and migrates live sessions off dead or draining shards through
// the client's own resume machinery.
//
// Usage:
//
//	difftest-fleet -listen :9750 -shards tcp://h1:9740,tcp://h2:9740
//	difftest-fleet -listen :9750 -shards ... -quota 'ci=8:0.5,*=0:1'
//
// Admin verbs against a running router:
//
//	difftest-fleet -addr :9750 -stats             # fleet + per-shard health
//	difftest-fleet -addr :9750 -drain tcp://h1:9740
//	difftest-fleet -addr :9750 -undrain tcp://h1:9740
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/event"
	"repro/internal/fleet"
	"repro/internal/transport"

	// Register the shm:// scheme so shard specs and the listen spec accept
	// the same-host shared-memory rendezvous difftestd does.
	_ "repro/internal/transport/shmring"
)

func main() {
	var (
		listen = flag.String("listen", ":9750",
			"listen address: tcp://host:port (or bare host:port), unix:///path, or shm:///dir")
		shardList = flag.String("shards", "",
			"comma-separated shard endpoints (difftestd addresses); required to serve")
		quotas = flag.String("quota", "",
			"per-tenant policy 'name=maxSessions:share,...'; '*' keys the default tenant")
		statsInterval = flag.Duration("stats-interval", time.Second,
			"shard health-poll cadence")
		resumeWindow = flag.Duration("resume-window", transport.DefaultResumeWindow,
			"keep broken sessions' records this long for client resume/migration")
		grace = flag.Duration("grace", 10*time.Second,
			"how long to let in-flight handlers finish on SIGINT/SIGTERM")
		verbose = flag.Bool("v", false, "log per-session lifecycle events")

		addr    = flag.String("addr", "", "router address for the admin verbs below")
		stats   = flag.Bool("stats", false, "poll the router at -addr and print fleet health")
		drain   = flag.String("drain", "", "withdraw this shard from the router at -addr")
		undrain = flag.String("undrain", "", "return this shard to the router at -addr")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "difftest-fleet: ", log.LstdFlags)

	if *stats || *drain != "" || *undrain != "" {
		if *addr == "" {
			logger.Fatal("admin verbs need -addr <router>")
		}
		if err := admin(os.Stdout, *addr, *stats, *drain, *undrain); err != nil {
			logger.Fatal(err)
		}
		return
	}

	if *shardList == "" {
		logger.Fatal("-shards is required (or use an admin verb with -addr)")
	}
	shards, err := fleet.ParseShards(*shardList)
	if err != nil {
		logger.Fatal(err)
	}
	q, err := parseQuotas(*quotas)
	if err != nil {
		logger.Fatal(err)
	}
	cfg := fleet.Config{
		Shards:        shards,
		Quotas:        q,
		StatsInterval: *statsInterval,
		ResumeWindow:  *resumeWindow,
	}
	if *verbose {
		cfg.Logf = logger.Printf
	}
	r, err := fleet.NewRouter(cfg)
	if err != nil {
		logger.Fatal(err)
	}

	l, err := transport.Listen(*listen)
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("routing %d shard(s) on %s (wire digest %#x)", len(shards), l.Addr(), event.FormatDigest())

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	serveErr := make(chan error, 1)
	go func() { serveErr <- r.Serve(l) }()

	select {
	case err := <-serveErr:
		if err != nil {
			logger.Fatal(err)
		}
	case <-ctx.Done():
		logger.Printf("signal received, shutting down (grace %v)", *grace)
		drainCtx, done := context.WithTimeout(context.Background(), *grace)
		err := r.Shutdown(drainCtx)
		done()
		if err != nil {
			logger.Printf("shutdown: %v", err)
		}
	}

	st := r.StatsInfo()
	gets, puts := event.PoolStats()
	logger.Printf("served %d session(s), %d mismatch verdict(s), %d migration(s), %d refused",
		st.Served, st.Mismatches, st.Migrations, r.Refused())
	logger.Printf("buffer pool: %d gets, %d puts, %d leaked", gets, puts, gets-puts)
	if gets != puts {
		fmt.Fprintln(os.Stderr, "difftest-fleet: pooled buffers leaked")
		os.Exit(1)
	}
}

// parseQuotas parses 'tenant=maxSessions:share,...' ('*' = default tenant).
func parseQuotas(spec string) (map[string]fleet.Quota, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	out := make(map[string]fleet.Quota)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		name, policy, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("quota %q: want tenant=maxSessions:share", part)
		}
		maxStr, shareStr, ok := strings.Cut(policy, ":")
		if !ok {
			return nil, fmt.Errorf("quota %q: want tenant=maxSessions:share", part)
		}
		max, err := strconv.Atoi(maxStr)
		if err != nil {
			return nil, fmt.Errorf("quota %q: maxSessions: %v", part, err)
		}
		share, err := strconv.ParseFloat(shareStr, 64)
		if err != nil {
			return nil, fmt.Errorf("quota %q: share: %v", part, err)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("quota %q: tenant repeated", part)
		}
		out[name] = fleet.Quota{MaxSessions: max, Share: share}
	}
	return out, nil
}

// admin runs one admin verb against a live router and prints the reply to
// out; a refusal comes back as the router's *transport.ErrorInfo.
func admin(out io.Writer, addr string, stats bool, drain, undrain string) error {
	conn, err := transport.DialFrame(addr, 10*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetWriteTimeout(10 * time.Second)
	conn.SetReadTimeout(10 * time.Second)

	if stats {
		var st transport.StatsInfo
		if err := call(conn, transport.FrameStats, nil, &st); err != nil {
			return err
		}
		fmt.Fprintf(out, "fleet: active=%d served=%d mismatches=%d migrations=%d parked=%d resumed=%d\n",
			st.Active, st.Served, st.Mismatches, st.Migrations, st.Parked, st.Resumed)
		for _, sh := range st.Shards {
			fmt.Fprintf(out, "shard %-32s %-8s placed=%d active=%d served=%d capacity=%d\n",
				sh.Addr, sh.State, sh.Sessions, sh.Active, sh.Served, sh.Capacity)
		}
		return nil
	}

	req := transport.DrainRequest{Shard: drain}
	if undrain != "" {
		req = transport.DrainRequest{Shard: undrain, Undrain: true}
	}
	var reply transport.DrainReply
	if err := call(conn, transport.FrameDrain, &req, &reply); err != nil {
		return err
	}
	fmt.Fprintf(out, "shard %s: %s, %d session(s) redirected\n", reply.Shard, reply.State, reply.Redirected)
	return nil
}

// call is one admin round trip: the reply comes back under the request's
// own kind, and a refusal becomes the returned error.
func call(conn transport.FrameTransport, typ uint8, req, reply any) error {
	ei, err := transport.Call(conn, typ, req, typ, reply)
	if ei != nil {
		return ei
	}
	return err
}
