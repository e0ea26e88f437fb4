package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/event"
	"repro/internal/wire"
)

// stubChecker is a SessionChecker that counts traffic and optionally reports
// a mismatch after a set number of items.
type stubChecker struct {
	mu         sync.Mutex
	events     uint64
	packets    int
	mismatchAt uint64 // report a mismatch once events reaches this (0 = never)
	trapCode   uint64
	hold       time.Duration // Items sleeps this long once, at the call that finds holdAt events
	holdAt     uint64
}

func (s *stubChecker) Packet(buf []byte) (*checker.Mismatch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.packets++
	s.events += uint64(len(buf)) // stand-in: a byte per "event"
	return s.maybeMismatch(), nil
}

func (s *stubChecker) Items(items []wire.Item) (*checker.Mismatch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hold > 0 && s.events == s.holdAt {
		time.Sleep(s.hold)
		s.hold = 0
	}
	s.events += uint64(len(items))
	return s.maybeMismatch(), nil
}

func (s *stubChecker) maybeMismatch() *checker.Mismatch {
	if s.mismatchAt > 0 && s.events >= s.mismatchAt {
		return &checker.Mismatch{Core: 1, Seq: s.events, PC: 0x8000_1000, Detail: "stub divergence"}
	}
	return nil
}

func (s *stubChecker) Finish() (Final, error) {
	return Final{TrapCode: s.trapCode}, nil
}

func (s *stubChecker) Events() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events
}

// startServer runs a server on a Unix socket in the test's temp dir and
// returns its dial spec.
func startServer(t *testing.T, cfg ServerConfig) (*Server, string) {
	t.Helper()
	srv := NewServer(cfg)
	spec := "unix:" + filepath.Join(t.TempDir(), "difftestd.sock")
	l, err := Listen(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(l)
	}()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	})
	return srv, spec
}

func stubSessions(stub func() *stubChecker) NewSessionFunc {
	return func(Hello) (SessionChecker, error) { return stub(), nil }
}

func testHello() Hello {
	return Hello{DUT: "stub", Platform: "stub", Config: "Z", Workload: "stub"}
}

func TestServerCleanSession(t *testing.T) {
	srv, spec := startServer(t, ServerConfig{
		NewSession: stubSessions(func() *stubChecker { return &stubChecker{trapCode: 0x29} }),
		Window:     4,
	})
	cl, err := Dial(spec, testHello(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Window() != 4 {
		t.Fatalf("granted window %d, want 4", cl.Window())
	}
	for i := 0; i < 20; i++ {
		stop, err := cl.SendItems([]wire.Item{{Type: 0, Payload: []byte{1, 2}}})
		if err != nil {
			t.Fatal(err)
		}
		if stop {
			t.Fatalf("send %d stopped a clean stream", i)
		}
	}
	v, err := cl.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !v.Finished || v.Mismatch != nil || v.TrapCode != 0x29 {
		t.Fatalf("clean session verdict %+v", v)
	}
	if v.Events != 20 {
		t.Fatalf("server checked %d events, want 20", v.Events)
	}
	served, mismatches, _ := srv.Stats()
	if served != 1 || mismatches != 0 {
		t.Fatalf("served=%d mismatches=%d after one clean session", served, mismatches)
	}
}

func TestServerMismatchVerdict(t *testing.T) {
	srv, spec := startServer(t, ServerConfig{
		NewSession: stubSessions(func() *stubChecker { return &stubChecker{mismatchAt: 5} }),
		Window:     2,
	})
	cl, err := Dial(spec, testHello(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	stopped := false
	for i := 0; i < 50 && !stopped; i++ {
		stopped, err = cl.SendItems([]wire.Item{{Type: 0, Payload: []byte{byte(i)}}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !stopped {
		t.Fatal("verdict never stopped the producer")
	}
	v, err := cl.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if v.Mismatch == nil {
		t.Fatalf("final verdict %+v carries no mismatch", v)
	}
	m := v.Mismatch.ToChecker()
	if m.Core != 1 || m.PC != 0x8000_1000 || m.Detail != "stub divergence" {
		t.Fatalf("mismatch diagnosis lost in transit: %+v", m)
	}
	_, mismatches, _ := srv.Stats()
	if mismatches != 1 {
		t.Fatalf("mismatches=%d, want 1", mismatches)
	}
}

func TestServerRejectsProtocolMismatch(t *testing.T) {
	_, spec := startServer(t, ServerConfig{
		NewSession: stubSessions(func() *stubChecker { return &stubChecker{} }),
	})
	// Dial pins Proto/WireDigest itself, so speak the handshake by hand.
	sp, _ := ParseSpec(spec)
	nc, err := net.Dial(sp.Scheme, sp.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	conn := NewConn(nc)
	h := testHello()
	h.Proto = ProtoVersion + 1
	h.WireDigest = event.FormatDigest()
	if err := conn.WriteFrame(FrameHello, EncodeControl(&h)); err != nil {
		t.Fatal(err)
	}
	fh, payload, err := conn.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	defer releaseBuf(payload)
	if fh.Type != FrameErrorInfo {
		t.Fatalf("server answered frame type %d, want FrameError", fh.Type)
	}
	var ei ErrorInfo
	if err := DecodeControl(fh.Type, payload, &ei); err != nil {
		t.Fatal(err)
	}
	if ei.Code != "handshake" || !strings.Contains(ei.Msg, "protocol version") {
		t.Fatalf("rejection %+v does not name the protocol version", ei)
	}
}

func TestServerRejectsWireDigestDrift(t *testing.T) {
	_, spec := startServer(t, ServerConfig{
		NewSession: stubSessions(func() *stubChecker { return &stubChecker{} }),
	})
	sp, _ := ParseSpec(spec)
	nc, err := net.Dial(sp.Scheme, sp.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	conn := NewConn(nc)
	h := testHello()
	h.Proto = ProtoVersion
	h.WireDigest = event.FormatDigest() ^ 1 // one bit of codec drift
	if err := conn.WriteFrame(FrameHello, EncodeControl(&h)); err != nil {
		t.Fatal(err)
	}
	fh, payload, err := conn.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	defer releaseBuf(payload)
	var ei ErrorInfo
	if fh.Type != FrameErrorInfo || DecodeControl(fh.Type, payload, &ei) != nil {
		t.Fatalf("expected a FrameError rejection, got type %d", fh.Type)
	}
	if !strings.Contains(ei.Msg, "digest") {
		t.Fatalf("rejection %q does not name the wire digest", ei.Msg)
	}
}

func TestServerRejectsSessionBuildError(t *testing.T) {
	_, spec := startServer(t, ServerConfig{
		NewSession: func(h Hello) (SessionChecker, error) {
			return nil, fmt.Errorf("unknown DUT %q", h.DUT)
		},
	})
	_, err := Dial(spec, testHello(), ClientConfig{})
	var ei *ErrorInfo
	if !errors.As(err, &ei) || ei.Code != "handshake" {
		t.Fatalf("dial error %v, want a handshake ErrorInfo", err)
	}
}

func TestServerMaxSessions(t *testing.T) {
	_, spec := startServer(t, ServerConfig{
		NewSession:  stubSessions(func() *stubChecker { return &stubChecker{} }),
		MaxSessions: 1,
	})
	first, err := Dial(spec, testHello(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()

	// The slot is taken; waiting for the refusal synchronizes on the server
	// having fully admitted the first session.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err = Dial(spec, testHello(), ClientConfig{})
		var ei *ErrorInfo
		if errors.As(err, &ei) && ei.Code == "overloaded" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("second session was not refused as overloaded (last err: %v)", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if _, err := first.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestServerReapsIdleSessions(t *testing.T) {
	srv, spec := startServer(t, ServerConfig{
		NewSession:  stubSessions(func() *stubChecker { return &stubChecker{} }),
		IdleTimeout: 50 * time.Millisecond,
	})
	cl, err := Dial(spec, testHello(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Send nothing; the server must reap the session and say why.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, _, reaped := srv.Stats()
		if reaped == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle session was never reaped")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := cl.Finish(); err == nil {
		t.Fatal("Finish succeeded on a reaped session")
	}
}

func TestServerConcurrentSessions(t *testing.T) {
	const sessions = 6
	srv, spec := startServer(t, ServerConfig{
		NewSession: stubSessions(func() *stubChecker { return &stubChecker{} }),
		Window:     2,
	})
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl, err := Dial(spec, testHello(), ClientConfig{})
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for j := 0; j < 25; j++ {
				if _, err := cl.SendItems([]wire.Item{{Type: 0, Payload: []byte{byte(id), byte(j)}}}); err != nil {
					errs <- err
					return
				}
			}
			v, err := cl.Finish()
			if err != nil {
				errs <- err
				return
			}
			if !v.Finished || v.Events != 25 {
				errs <- fmt.Errorf("session %d: verdict %+v", id, v)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	served, _, _ := srv.Stats()
	if served != sessions {
		t.Fatalf("served %d sessions, want %d", served, sessions)
	}
}

func TestServerShutdownRefusesNewSessions(t *testing.T) {
	srv, spec := startServer(t, ServerConfig{
		NewSession: stubSessions(func() *stubChecker { return &stubChecker{} }),
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := Dial(spec, testHello(), ClientConfig{DialTimeout: time.Second}); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}

// TestConsumeRejectsNonDataFrames pins the consume() dispatch fix: the old
// switch read `default: // FrameItems`, so any unexpected frame type was
// silently decoded as bare wire items. The payload below decodes cleanly as
// one item — under the old arm every control-frame type here would have fed
// it to the checker instead of failing.
func TestConsumeRejectsNonDataFrames(t *testing.T) {
	payload, err := AppendItems(nil, []wire.Item{{Type: 1, Payload: []byte{1, 2, 3, 4}}})
	if err != nil {
		t.Fatal(err)
	}
	chk := &stubChecker{}
	srv := NewServer(ServerConfig{NewSession: stubSessions(func() *stubChecker { return chk })})
	for _, typ := range []uint8{FrameHello, FrameCredit, FrameErrorInfo, FrameResume, 200} {
		if _, err := srv.consume(chk, typ, payload, false); err == nil {
			t.Errorf("consume(frame type %d) = nil error, want a non-data-frame rejection", typ)
		}
	}
	if got := chk.Events(); got != 0 {
		t.Errorf("rejected frames fed %d events to the checker, want 0", got)
	}

	// The two data kinds still flow: the items payload checks one item.
	if _, err := srv.consume(chk, FrameItems, payload, false); err != nil {
		t.Fatalf("consume(FrameItems) = %v", err)
	}
	if got := chk.Events(); got != 1 {
		t.Errorf("consume(FrameItems) checked %d events, want 1", got)
	}
}

// TestMismatchReportRoundTrip: a verdict's mismatch survives the wire form
// field for field, and "no mismatch" stays nil both ways.
func TestMismatchReportRoundTrip(t *testing.T) {
	if NewMismatchReport(nil) != nil || (*MismatchReport)(nil).ToChecker() != nil {
		t.Fatal("nil mismatch did not stay nil")
	}
	m := &checker.Mismatch{Core: 1, Seq: 9, Kind: event.KindCSRState, PC: 0x80000010,
		Detail: "state snapshot diverged", Fused: true}
	if got := NewMismatchReport(m).ToChecker(); *got != *m {
		t.Fatalf("round trip: %+v, want %+v", got, m)
	}
}
