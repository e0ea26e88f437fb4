package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/cosim"
	"repro/internal/fleet"
	"repro/internal/transport"
)

// The router keeps a finished session's journal for its ResumeWindow. The
// production default (two minutes) would make memory grow with every session
// a run completes, so peak RSS would track host speed; one second lets the
// journals of finished sessions be reaped while the run continues, and RSS
// plateaus at the live sessions plus those parked for up to two seconds (the
// window plus one poll interval, which stays at its production default).
const (
	routerResumeWindow  = time.Second
	routerStatsInterval = time.Second
	shutdownGrace       = 10 * time.Second
)

// backend is the software half a remote workload dials: an in-process
// difftestd on a shm ring, or a fleet router in front of two shards. Every
// server and the router run in this process, on sockets and ring files under
// the run's temp dir.
type backend struct {
	addr   string // what the clients dial
	router *fleet.Router
	stops  []func() error // in start order
}

// frameServer is what difftestd's transport.Server and fleet.Router share.
type frameServer interface {
	Serve(transport.FrameListener) error
	Shutdown(context.Context) error
}

// serve runs srv on spec until the returned stop function is called. stop
// returns once Serve has returned, so no goroutine of the server outlives it.
func serve(spec string, srv frameServer) (stop func() error, err error) {
	l, err := transport.Listen(spec)
	if err != nil {
		return nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(l) // returns when Shutdown closes the listener
	}()
	return func() error {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		err := srv.Shutdown(ctx)
		<-done
		return err
	}, nil
}

func startShard(spec string) (func() error, error) {
	return serve(spec, transport.NewServer(transport.ServerConfig{NewSession: cosim.NewSession}))
}

// startBackend brings up what the workload's link kind needs under dir
// (nothing for in-process workloads). direct replaces the router of a routed
// workload with a single shard, for the router-tax comparison.
func startBackend(link linkKind, dir string, direct bool) (*backend, error) {
	b := &backend{}
	fail := func(err error) (*backend, error) {
		b.stop()
		return nil, err
	}
	add := func(spec string, start func(string) (func() error, error)) error {
		stop, err := start(spec)
		if err != nil {
			return fmt.Errorf("start %s: %w", spec, err)
		}
		b.stops = append(b.stops, stop)
		return nil
	}
	switch {
	case link == inProcess:
		return b, nil
	case link == overShm:
		b.addr = "shm://" + filepath.Join(dir, "rings")
		if err := add(b.addr, startShard); err != nil {
			return fail(err)
		}
	case direct:
		b.addr = "unix://" + filepath.Join(dir, "direct.sock")
		if err := add(b.addr, startShard); err != nil {
			return fail(err)
		}
	default:
		shards := []string{
			"unix://" + filepath.Join(dir, "shard0.sock"),
			"unix://" + filepath.Join(dir, "shard1.sock"),
		}
		for _, s := range shards {
			if err := add(s, startShard); err != nil {
				return fail(err)
			}
		}
		r, err := fleet.NewRouter(fleet.Config{
			Shards:        shards,
			StatsInterval: routerStatsInterval,
			ResumeWindow:  routerResumeWindow,
		})
		if err != nil {
			return fail(err)
		}
		b.router = r
		b.addr = "unix://" + filepath.Join(dir, "router.sock")
		if err := add(b.addr, func(spec string) (func() error, error) { return serve(spec, r) }); err != nil {
			return fail(err)
		}
	}
	return b, nil
}

// settle waits for the router to reap the journals of finished sessions and
// reports what a clean run must leave behind: no session record, no
// migration, no refusal.
func (b *backend) settle() error {
	if b.router == nil {
		return nil
	}
	deadline := time.Now().Add(routerResumeWindow + 3*routerStatsInterval)
	for b.router.Sessions() != 0 && time.Now().Before(deadline) {
		time.Sleep(routerStatsInterval / 20)
	}
	var errs []error
	if n := b.router.Sessions(); n != 0 {
		errs = append(errs, fmt.Errorf("router still holds %d session records", n))
	}
	if n := b.router.Migrations(); n != 0 {
		errs = append(errs, fmt.Errorf("router migrated %d sessions on a fault-free run", n))
	}
	if n := b.router.Refused(); n != 0 {
		errs = append(errs, fmt.Errorf("router refused %d sessions", n))
	}
	return errors.Join(errs...)
}

// stop shuts the router down first, then the shards, waiting for each.
func (b *backend) stop() error {
	var errs []error
	for i := len(b.stops) - 1; i >= 0; i-- {
		errs = append(errs, b.stops[i]())
	}
	b.stops = nil
	return errors.Join(errs...)
}
