package main

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/fleet"
	"repro/internal/transport"
	"repro/internal/wire"
)

func TestParseQuotas(t *testing.T) {
	got, err := parseQuotas("ci=8:0.5, *=0:1 ,batch=2:0.25")
	if err != nil {
		t.Fatalf("valid quota spec rejected: %v", err)
	}
	want := map[string]fleet.Quota{
		"ci":    {MaxSessions: 8, Share: 0.5},
		"*":     {MaxSessions: 0, Share: 1},
		"batch": {MaxSessions: 2, Share: 0.25},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseQuotas: got %v, want %v", got, want)
	}

	if got, err := parseQuotas("  "); err != nil || got != nil {
		t.Errorf("empty spec: got %v, %v; want nil, nil", got, err)
	}

	for _, bad := range []string{
		"ci",              // no policy
		"=8:0.5",          // no tenant
		"ci=8",            // no share
		"ci=many:0.5",     // bad maxSessions
		"ci=8:half",       // bad share
		"ci=8:0.5,ci=9:1", // repeated tenant
	} {
		if _, err := parseQuotas(bad); err == nil {
			t.Errorf("parseQuotas(%q) accepted", bad)
		}
	}
}

// idleChecker is a SessionChecker for shards no session ever reaches.
type idleChecker struct{}

func (idleChecker) Packet([]byte) (*checker.Mismatch, error)     { return nil, nil }
func (idleChecker) Items([]wire.Item) (*checker.Mismatch, error) { return nil, nil }
func (idleChecker) Finish() (transport.Final, error)             { return transport.Final{}, nil }
func (idleChecker) Events() uint64                               { return 0 }

// serve runs run on a fresh Unix socket in the test's temp dir and returns
// its spec; stop is registered as cleanup.
func serve(t *testing.T, name string, run func(transport.FrameListener) error, stop func(context.Context) error) string {
	t.Helper()
	spec := "unix:" + filepath.Join(t.TempDir(), name)
	l, err := transport.Listen(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		run(l)
	}()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		stop(ctx)
		<-done
	})
	return spec
}

// TestAdminVerbs drives -stats, -drain and -undrain against an in-process
// router over two shards, and checks that a refusal from the router comes
// back as its ErrorInfo.
func TestAdminVerbs(t *testing.T) {
	var shards []string
	for i := 0; i < 2; i++ {
		srv := transport.NewServer(transport.ServerConfig{
			NewSession: func(transport.Hello) (transport.SessionChecker, error) { return idleChecker{}, nil },
		})
		shards = append(shards, serve(t, "shard.sock", srv.Serve, srv.Shutdown))
	}
	shards, err := fleet.ParseShards(strings.Join(shards, ","))
	if err != nil {
		t.Fatal(err)
	}
	r, err := fleet.NewRouter(fleet.Config{Shards: shards, StatsInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	addr := serve(t, "router.sock", r.Serve, r.Shutdown)

	var out bytes.Buffer
	if err := admin(&out, addr, true, "", ""); err != nil {
		t.Fatalf("-stats: %v", err)
	}
	if !strings.HasPrefix(out.String(), "fleet: active=0 served=0") {
		t.Errorf("-stats printed no fleet line:\n%s", out.String())
	}
	for _, sh := range shards {
		if !strings.Contains(out.String(), "shard "+sh) {
			t.Errorf("-stats printed no line for shard %s:\n%s", sh, out.String())
		}
	}

	for _, c := range []struct {
		drain, undrain, want string
	}{
		{shards[0], "", "shard " + shards[0] + ": draining, 0 session(s) redirected\n"},
		{"", shards[0], "shard " + shards[0] + ": down, 0 session(s) redirected\n"},
	} {
		out.Reset()
		if err := admin(&out, addr, false, c.drain, c.undrain); err != nil {
			t.Fatalf("-drain %q -undrain %q: %v", c.drain, c.undrain, err)
		}
		if out.String() != c.want {
			t.Errorf("-drain %q -undrain %q printed %q, want %q", c.drain, c.undrain, out.String(), c.want)
		}
	}

	out.Reset()
	err = admin(&out, addr, false, "unix:/no/such/shard.sock", "")
	var ei *transport.ErrorInfo
	if !errors.As(err, &ei) || !strings.Contains(ei.Msg, "unknown shard") {
		t.Fatalf("-drain of an unknown shard = %v, want the router's \"unknown shard\" ErrorInfo", err)
	}
	if out.Len() != 0 {
		t.Errorf("refused -drain printed %q", out.String())
	}
}
