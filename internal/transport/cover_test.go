package transport

import (
	"encoding/binary"
	"errors"
	"net"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/event"
	"repro/internal/faultnet"
	"repro/internal/wire"
)

// pooledPacket builds an n-event packet on a pooled buffer; SendPacket takes
// ownership and releases it.
func pooledPacket(n int) batch.Packet {
	buf := event.GetBuf(n)
	buf = append(buf, make([]byte, n)...)
	return batch.Packet{Buf: buf, Used: len(buf), Events: n}
}

// TestClientPacketSession drives a clean packet-mode session end to end and
// pins the accessor surface the cosim layer reads its metrics through.
func TestClientPacketSession(t *testing.T) {
	gets0, puts0 := event.PoolStats()
	_, spec := startServer(t, ServerConfig{
		NewSession: stubSessions(func() *stubChecker { return &stubChecker{trapCode: 0x11} }),
		Window:     4,
	})
	cl, err := Dial(spec, testHello(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if cl.Session() == 0 {
		t.Fatal("session id must be non-zero after the handshake")
	}
	if cl.Stalls() != 0 || cl.Reconnects() != 0 || cl.ReplayedFrames() != 0 {
		t.Fatal("fresh client must report zeroed link counters")
	}

	for i := 0; i < 8; i++ {
		stop, err := cl.SendPacket(pooledPacket(48))
		if err != nil {
			t.Fatalf("SendPacket %d: %v", i, err)
		}
		if stop {
			t.Fatalf("clean session stopped early at packet %d", i)
		}
	}
	v, err := cl.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !v.Finished || v.TrapCode != 0x11 {
		t.Fatalf("verdict = %+v, want finished with trap 0x11", v)
	}
	if cl.Verdict() != nil {
		t.Fatal("clean session must have no early mismatch verdict")
	}
	if cl.Mismatch() != nil {
		t.Fatal("clean session must have no mismatch")
	}
	cl.Close()
	gets1, puts1 := event.PoolStats()
	if gets1-gets0 != puts1-puts0 {
		t.Fatalf("pool imbalance: %d gets vs %d puts", gets1-gets0, puts1-puts0)
	}
}

// TestClientMismatchAccessor pins the typed diagnosis round trip: the wire
// report must reconstruct to the same checker.Mismatch the accessor hands
// the cosim layer.
func TestClientMismatchAccessor(t *testing.T) {
	_, spec := startServer(t, ServerConfig{
		NewSession: stubSessions(func() *stubChecker { return &stubChecker{mismatchAt: 10} }),
	})
	cl, err := Dial(spec, testHello(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 50; i++ {
		stop, err := cl.SendItems([]wire.Item{{Type: 0, Payload: []byte{1, 2}}})
		if err != nil {
			t.Fatal(err)
		}
		if stop {
			break
		}
	}
	v, err := cl.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if v.Mismatch == nil {
		t.Fatal("session must end in a mismatch verdict")
	}
	m := cl.Mismatch()
	if m == nil || m.Seq != v.Mismatch.Seq || m.Detail != v.Mismatch.Detail {
		t.Fatalf("Mismatch() = %+v does not mirror verdict %+v", m, v.Mismatch)
	}
}

func TestParseSpecForms(t *testing.T) {
	good := []struct {
		in           string
		scheme, addr string
	}{
		{"127.0.0.1:8021", "tcp", "127.0.0.1:8021"},   // legacy bare host:port
		{"unix:/tmp/d.sock", "unix", "/tmp/d.sock"},   // legacy PR 4 form
		{"tcp://10.0.0.1:9", "tcp", "10.0.0.1:9"},     // canonical tcp
		{"unix:///tmp/d.sock", "unix", "/tmp/d.sock"}, // canonical unix
		{"shm:///tmp/rings", "shm", "/tmp/rings"},     // shm rendezvous dir
		{"shm:///tmp/rings?ring=65536", "shm", "/tmp/rings?ring=65536"},
	}
	for _, tc := range good {
		sp, err := ParseSpec(tc.in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", tc.in, err)
		}
		if sp.Scheme != tc.scheme || sp.Addr != tc.addr {
			t.Fatalf("ParseSpec(%q) = %+v, want {%s %s}", tc.in, sp, tc.scheme, tc.addr)
		}
		if got := sp.String(); got != tc.scheme+"://"+tc.addr {
			t.Fatalf("Spec.String() = %q", got)
		}
	}
	for _, bad := range []string{"", "unix:", "://addr", "tcp://"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) must fail", bad)
		}
	}
}

// TestFrameHeaderEncodedSize pins the header's field layout to the size its
// codec writes: a field added or widened without updating FrameHeaderSize,
// AppendTo and DecodeFrom fails here.
func TestFrameHeaderEncodedSize(t *testing.T) {
	var h FrameHeader
	if h.EncodedSize() != FrameHeaderSize {
		t.Fatalf("EncodedSize() = %d, want %d", h.EncodedSize(), FrameHeaderSize)
	}
	if n := binary.Size(FrameHeader{}); n != FrameHeaderSize {
		t.Fatalf("FrameHeader field layout is %d bytes, FrameHeaderSize is %d", n, FrameHeaderSize)
	}
}

func TestErrorInfoErrorString(t *testing.T) {
	e := &ErrorInfo{Code: "resume", Msg: "unknown session"}
	s := e.Error()
	if !strings.Contains(s, "resume") || !strings.Contains(s, "unknown session") {
		t.Fatalf("ErrorInfo.Error() = %q must name code and message", s)
	}
}

// TestSetDeadlineNow pins the cancellation hook: after SetDeadlineNow every
// blocking read must fail promptly with a timeout.
func TestSetDeadlineNow(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	c := NewConn(a)
	c.SetDeadlineNow()
	done := make(chan error, 1)
	go func() {
		_, _, err := c.ReadFrame()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("read after SetDeadlineNow must fail")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read did not unblock after SetDeadlineNow")
	}
	c.Close()
}

// TestParkedSessionReapedAfterWindow pins the reap-vs-resume policy: a
// parked session is resumable only within ResumeWindow; afterwards the next
// park/resume sweep reaps it and a Resume presenting its valid token is
// refused like any unknown session.
func TestParkedSessionReapedAfterWindow(t *testing.T) {
	srv, spec := startServer(t, ServerConfig{
		NewSession:   stubSessions(func() *stubChecker { return &stubChecker{} }),
		ResumeWindow: 40 * time.Millisecond,
		Logf:         t.Logf,
	})

	// Manual handshake so the disconnect timing is ours, not a Client's.
	sp, _ := ParseSpec(spec)
	nc, err := net.Dial(sp.Scheme, sp.Addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(nc)
	h := testHello()
	h.Proto = ProtoVersion
	h.WireDigest = event.FormatDigest()
	if err := conn.WriteFrame(FrameHello, EncodeControl(&h)); err != nil {
		t.Fatal(err)
	}
	fh, payload, err := conn.ReadFrame()
	if err != nil || fh.Type != FrameWelcome {
		t.Fatalf("welcome: type=%d err=%v", fh.Type, err)
	}
	var w Welcome
	if err := DecodeControl(fh.Type, payload, &w); err != nil {
		t.Fatal(err)
	}
	releaseBuf(payload)
	if w.ResumeToken == 0 {
		t.Fatalf("server sent welcome %+v without a resume token", w)
	}
	conn.Close() // vanish mid-session: the server parks it

	// The park counter moves inside the session goroutine, before its
	// deferred ActiveSessions decrement runs, so wait for both.
	deadline := time.Now().Add(2 * time.Second)
	for {
		parked, _ := srv.ResumeStats()
		if parked > 0 && srv.ActiveSessions() == 0 {
			break
		}
		if time.Now().After(deadline) {
			if parked == 0 {
				t.Fatal("session was never parked")
			}
			t.Fatalf("ActiveSessions() = %d after the only connection closed", srv.ActiveSessions())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(60 * time.Millisecond) // let the resume window lapse

	nc2, err := net.Dial(sp.Scheme, sp.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc2.Close()
	conn2 := NewConn(nc2)
	r := Resume{Proto: ProtoVersion, Session: w.Session, Token: w.ResumeToken}
	if err := conn2.WriteFrame(FrameResume, EncodeControl(&r)); err != nil {
		t.Fatal(err)
	}
	fh2, payload2, err := conn2.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	defer releaseBuf(payload2)
	var ei ErrorInfo
	if fh2.Type != FrameErrorInfo || DecodeControl(fh2.Type, payload2, &ei) != nil || ei.Code != "resume" {
		t.Fatalf("expired resume answered frame %d %+v, want a resume refusal", fh2.Type, ei)
	}
	if _, _, reaped := srv.Stats(); reaped == 0 {
		t.Fatal("expired parked session was not counted as reaped")
	}
}

// TestServerRefusesWhenAtCapacity pins the overload guard.
func TestServerRefusesWhenAtCapacity(t *testing.T) {
	_, spec := startServer(t, ServerConfig{
		NewSession:  stubSessions(func() *stubChecker { return &stubChecker{} }),
		MaxSessions: 1,
	})
	cl, err := Dial(spec, testHello(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = Dial(spec, testHello(), ClientConfig{})
	if err == nil {
		t.Fatal("second session must be refused at MaxSessions=1")
	}
	if !strings.Contains(err.Error(), "overloaded") {
		t.Fatalf("refusal error %q does not name the overloaded code", err)
	}
}

// TestResumeDeliversLostFinalVerdict pins the completed-session replay: the
// connection dies right after the End frame is delivered, so the server
// finishes the session and writes a Done the client never sees. The resume
// must hand back the final verdict from the parked session instead of
// retransmitting anything.
func TestResumeDeliversLostFinalVerdict(t *testing.T) {
	gets0, puts0 := event.PoolStats()
	srv, spec := startServer(t, ServerConfig{
		NewSession:   stubSessions(func() *stubChecker { return &stubChecker{trapCode: 0x2a} }),
		ResumeWindow: time.Minute,
	})
	j := faultnet.NewJournal(8)
	// Write index 6 = Hello + 5 data frames + the End frame; the oversized
	// offset lets the whole End frame through before the close, so the
	// server completes the session, and the Reset drops the Done it sends
	// back however fast it arrives.
	dial, dials := faultyFirstDial(faultnet.Plan{
		Seed:   8,
		Script: []faultnet.Op{{Index: 6, Kind: faultnet.Reset, Offset: 1 << 16}},
	}, j)
	cl, err := Dial(spec, testHello(), resumeClientConfig(dial))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := cl.SendItems([]wire.Item{{Type: 0, Payload: []byte{byte(i)}}}); err != nil {
			t.Fatalf("send %d: %v\n%s", i, err, j)
		}
	}
	v, err := cl.Finish()
	if err != nil {
		t.Fatalf("finish: %v\n%s", err, j)
	}
	if !v.Finished || v.TrapCode != 0x2a || v.Events != 5 {
		t.Fatalf("replayed final verdict %+v, want finished trap 0x2a over 5 events\n%s", v, j)
	}
	if dials.Load() < 2 {
		t.Fatalf("%d dials: losing the Done frame should have forced a resume\n%s", dials.Load(), j)
	}
	if _, resumed := srv.ResumeStats(); resumed == 0 {
		t.Fatalf("server never counted the resume\n%s", j)
	}
	cl.Close()
	gets1, puts1 := event.PoolStats()
	if gets1-gets0 != puts1-puts0 {
		t.Fatalf("pool imbalance: %d gets vs %d puts\n%s", gets1-gets0, puts1-puts0, j)
	}
}

// TestResumeRefusedAfterReapIsFatal pins the client side of the reap-vs-
// resume policy: when the server has already reaped the parked session, the
// resume refusal is a fact about the session, not the link — the client must
// surface ErrSessionLost immediately instead of burning its retry budget.
func TestResumeRefusedAfterReapIsFatal(t *testing.T) {
	_, spec := startServer(t, ServerConfig{
		NewSession:   stubSessions(func() *stubChecker { return &stubChecker{} }),
		ResumeWindow: time.Millisecond, // expires long before the first backoff
	})
	j := faultnet.NewJournal(9)
	dial, dials := faultyFirstDial(faultnet.Plan{
		Seed:   9,
		Script: []faultnet.Op{{Index: 3, Kind: faultnet.Reset, Offset: 7}},
	}, j)
	cfg := ClientConfig{
		MaxRetries:  5,
		BackoffBase: 60 * time.Millisecond,
		BackoffMax:  200 * time.Millisecond,
		JitterSeed:  3,
		Dial:        dial,
	}
	cl, err := Dial(spec, testHello(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for i := 0; i < 30; i++ {
		if _, err := cl.SendItems([]wire.Item{{Type: 0, Payload: []byte{byte(i)}}}); err != nil {
			lastErr = err
			break
		}
	}
	if lastErr == nil {
		_, lastErr = cl.Finish()
	}
	if !errors.Is(lastErr, ErrSessionLost) {
		t.Fatalf("error after reaped resume = %v, want ErrSessionLost\n%s", lastErr, j)
	}
	if got := dials.Load(); got != 2 {
		t.Fatalf("%d dials, want exactly 2: a resume refusal must not be retried\n%s", got, j)
	}
	cl.Close()
}

// TestDialHandshakeErrors drives Dial against a server that misbehaves at
// the handshake: a non-welcome reply, a zero-token grant, a welcome with no
// resume token, and no listener.
func TestDialHandshakeErrors(t *testing.T) {
	spec := "unix:" + filepath.Join(t.TempDir(), "fake.sock")
	l, err := Listen(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	replies := make(chan func(FrameTransport), 3)
	go func() {
		for {
			conn, err := l.AcceptFrame()
			if err != nil {
				return
			}
			go func(conn FrameTransport) {
				defer conn.Close()
				_, p, err := conn.ReadFrame()
				if err != nil {
					return
				}
				conn.ReleasePayload(p)
				(<-replies)(conn)
			}(conn)
		}
	}()

	replies <- func(c FrameTransport) { c.WriteFrame(FrameCredit, EncodeControl(&Credit{Tokens: 1})) }
	if _, err := Dial(spec, testHello(), ClientConfig{}); err == nil || !strings.Contains(err.Error(), "unexpected frame type") {
		t.Fatalf("non-welcome reply: err = %v", err)
	}

	replies <- func(c FrameTransport) {
		c.WriteFrame(FrameWelcome, EncodeControl(&Welcome{
			Proto: ProtoVersion, WireDigest: event.FormatDigest(), Session: 1, Tokens: 0,
		}))
	}
	if _, err := Dial(spec, testHello(), ClientConfig{}); err == nil || !strings.Contains(err.Error(), "window") {
		t.Fatalf("zero-token welcome: err = %v", err)
	}

	replies <- func(c FrameTransport) {
		c.WriteFrame(FrameWelcome, EncodeControl(&Welcome{
			Proto: ProtoVersion, WireDigest: event.FormatDigest(), Session: 1, Tokens: 4,
		}))
	}
	if _, err := Dial(spec, testHello(), ClientConfig{}); err == nil || !strings.Contains(err.Error(), "resume token") {
		t.Fatalf("welcome without a resume token: err = %v", err)
	}

	none := "unix:" + filepath.Join(t.TempDir(), "nobody-home.sock")
	if _, err := Dial(none, testHello(), ClientConfig{DialTimeout: time.Second}); err == nil {
		t.Fatal("dial to a dead address must fail")
	}
}

// expectRefusal sends one raw frame as a brand-new connection's opener and
// returns the server's ErrorInfo refusal.
func expectRefusal(t *testing.T, spec string, typ uint8, payload []byte) ErrorInfo {
	t.Helper()
	sp, _ := ParseSpec(spec)
	nc, err := net.Dial(sp.Scheme, sp.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	conn := NewConn(nc)
	if err := conn.WriteFrame(typ, payload); err != nil {
		t.Fatal(err)
	}
	fh, p, err := conn.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	defer releaseBuf(p)
	var ei ErrorInfo
	if fh.Type != FrameErrorInfo || DecodeControl(fh.Type, p, &ei) != nil {
		t.Fatalf("expected an ErrorInfo refusal, got frame type %d", fh.Type)
	}
	return ei
}

// TestServerHandshakeRefusals sweeps the malformed-opener space: wrong
// first frame, protocol drift, codec-digest drift, and unparseable resumes
// must each produce a typed refusal naming the right code.
func TestServerHandshakeRefusals(t *testing.T) {
	_, spec := startServer(t, ServerConfig{
		NewSession:   stubSessions(func() *stubChecker { return &stubChecker{} }),
		ResumeWindow: time.Minute,
	})

	if ei := expectRefusal(t, spec, FrameCredit, EncodeControl(&Credit{Tokens: 1})); ei.Code != "handshake" {
		t.Fatalf("wrong opener frame refused with %+v, want code handshake", ei)
	}

	h := testHello()
	h.Proto = 99
	h.WireDigest = event.FormatDigest()
	if ei := expectRefusal(t, spec, FrameHello, EncodeControl(&h)); ei.Code != "handshake" || !strings.Contains(ei.Msg, "protocol version") {
		t.Fatalf("proto drift refused with %+v", ei)
	}

	h = testHello()
	h.Proto = ProtoVersion
	h.WireDigest = 0xdead
	if ei := expectRefusal(t, spec, FrameHello, EncodeControl(&h)); ei.Code != "handshake" || !strings.Contains(ei.Msg, "digest") {
		t.Fatalf("digest drift refused with %+v", ei)
	}

	r := Resume{Proto: 99, Session: 1, Token: 1}
	if ei := expectRefusal(t, spec, FrameResume, EncodeControl(&r)); ei.Code != "resume" {
		t.Fatalf("resume proto drift refused with %+v", ei)
	}

	if ei := expectRefusal(t, spec, FrameResume, []byte("{not json")); ei.Code != "resume" {
		t.Fatalf("garbage resume refused with %+v", ei)
	}

	if ei := expectRefusal(t, spec, FrameHello, []byte("{not json")); ei.Code != "handshake" {
		t.Fatalf("garbage hello refused with %+v", ei)
	}
}

// TestServerRefusesFailedSessionBuild pins the NewSession error path: the
// checker factory's error must reach the client as a handshake refusal.
func TestServerRefusesFailedSessionBuild(t *testing.T) {
	_, spec := startServer(t, ServerConfig{
		NewSession: func(Hello) (SessionChecker, error) {
			return nil, errors.New("no model for this DUT")
		},
	})
	_, err := Dial(spec, testHello(), ClientConfig{})
	var ei *ErrorInfo
	if !errors.As(err, &ei) || ei.Code != "handshake" || !strings.Contains(ei.Msg, "no model") {
		t.Fatalf("failed session build surfaced as %v, want the factory's refusal", err)
	}
}

// TestIdleReapWithoutResume pins the idle policy on the wire: a silent
// session is parked, then told so with a typed idle error, and a Resume
// presenting the Welcome's token picks it up where it stopped.
func TestIdleReapWithoutResume(t *testing.T) {
	// Holding the park's log line open widens the gap a notice written
	// before the park would leave, so the order is checked, not raced.
	var parked atomic.Bool
	_, spec := startServer(t, ServerConfig{
		NewSession:  stubSessions(func() *stubChecker { return &stubChecker{} }),
		IdleTimeout: 30 * time.Millisecond,
		Logf: func(format string, _ ...any) {
			if strings.HasPrefix(format, "session %d: parked") {
				time.Sleep(20 * time.Millisecond)
				parked.Store(true)
			}
		},
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
	h.WireDigest = event.FormatDigest()
	w, ei, err := Handshake(conn, h)
	if ei != nil || err != nil {
		t.Fatalf("handshake: %v %v", ei, err)
	}
	// Go silent; the server must park us and say why.
	fh, p, err := conn.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	var idle ErrorInfo
	derr := DecodeControl(fh.Type, p, &idle)
	releaseBuf(p)
	if fh.Type != FrameErrorInfo || derr != nil || idle.Code != "idle" {
		t.Fatalf("idle session answered frame %d %+v, want an idle notice", fh.Type, idle)
	}
	if !parked.Load() {
		t.Fatal("the idle notice arrived before the session was parked")
	}

	nc2, err := net.Dial(sp.Scheme, sp.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc2.Close()
	var ok ResumeOK
	ei, err = Call(NewConn(nc2), FrameResume, &Resume{
		Proto: ProtoVersion, Session: w.Session, Token: w.ResumeToken,
	}, FrameResumeOK, &ok)
	if ei != nil || err != nil {
		t.Fatalf("resume after the idle notice: %v %v", ei, err)
	}
	if ok.Have != 0 || ok.Final != nil || ok.Verdict != nil {
		t.Fatalf("resume of an idle empty session answered %+v, want Have 0", ok)
	}
}

// TestFrameHeaderSum pins the checksum definition both ends must share:
// Sum, the wire encoding, and the reader's incremental CRC agree.
func TestFrameHeaderSum(t *testing.T) {
	p := []byte("semantic-aware payload bytes")
	h := FrameHeader{Magic: FrameMagic, Type: FrameItems, Length: uint32(len(p)), Seq: 9}
	h.Check = h.Sum(p)
	b := h.AppendTo(nil)
	if got := crc32Frame(b[:frameCheckOffset], p); got != h.Check {
		t.Fatalf("Sum() = %#x but the reader computes %#x", h.Check, got)
	}
	var d FrameHeader
	if _, err := d.DecodeFrom(b); err != nil {
		t.Fatal(err)
	}
	if d.Check != h.Check || d.Sum(p) != h.Check {
		t.Fatalf("decoded header check %#x disagrees with %#x", d.Check, h.Check)
	}
	if h.Sum(nil) == h.Check {
		t.Fatal("payload bytes must participate in the checksum")
	}
}

// TestRedialReplaysCompletedSession pins the lost-Done recovery contract:
// when the link dies after the server finished a session but before the
// client read Done, the next redial must receive ResumeOK.Final from the
// parked completed session and surface it as the final verdict — with no
// retransmission and no live reader on the replacement connection.
func TestRedialReplaysCompletedSession(t *testing.T) {
	srv, spec := startServer(t, ServerConfig{
		NewSession:   stubSessions(func() *stubChecker { return &stubChecker{trapCode: 0x2a} }),
		ResumeWindow: time.Minute,
	})
	cl, err := Dial(spec, testHello(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 3; i++ {
		if _, err := cl.SendItems([]wire.Item{{Type: 0, Payload: []byte{byte(i)}}}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	v, err := cl.Finish()
	if err != nil || !v.Finished {
		t.Fatalf("Finish = %+v, %v", v, err)
	}

	// Simulate the Done frame having been lost on the wire: forget the final
	// verdict and resume. The server still holds the completed session parked
	// for ResumeWindow exactly so this redial can replay it.
	cl.mu.Lock()
	cl.final = nil
	cl.mu.Unlock()
	g, err := cl.redial()
	if err != nil {
		t.Fatalf("redial against completed session: %v", err)
	}
	select {
	case <-g.exited:
	default:
		t.Fatal("completed-session replay must return a generation with no live reader")
	}
	g.conn.Close()
	cl.mu.Lock()
	fin := cl.final
	cl.mu.Unlock()
	if fin == nil || !fin.Finished || fin.TrapCode != 0x2a || fin.Events != 3 {
		t.Fatalf("replayed final verdict = %+v, want finished trap 0x2a with 3 events", fin)
	}
	if _, resumed := srv.ResumeStats(); resumed == 0 {
		t.Fatal("server must count the completed-session replay as a resume")
	}
}

// TestRedialReplaysEarlyVerdict pins the other half of the replay contract:
// a session that mismatched early (verdict written, End not yet sent) and
// then lost its link must hand the mismatch verdict back in ResumeOK so the
// client stops producing even if the original Verdict frame was lost.
func TestRedialReplaysEarlyVerdict(t *testing.T) {
	srv, spec := startServer(t, ServerConfig{
		NewSession:   stubSessions(func() *stubChecker { return &stubChecker{mismatchAt: 2} }),
		ResumeWindow: time.Minute,
	})
	cl, err := Dial(spec, testHello(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 3; i++ {
		if _, err := cl.SendItems([]wire.Item{{Type: 0, Payload: []byte{byte(i)}}}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for cl.Mismatch() == nil {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the early mismatch verdict")
		}
		time.Sleep(time.Millisecond)
	}

	// Sever the link mid-session and wait for the server to park.
	cl.gen.conn.Close()
	for {
		if parked, _ := srv.ResumeStats(); parked > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the server to park the session")
		}
		time.Sleep(time.Millisecond)
	}

	// Simulate the Verdict frame having been lost: forget it and redial.
	cl.mu.Lock()
	cl.verdict = nil
	cl.mu.Unlock()
	cl.stopped.Store(false)
	g, err := cl.redial()
	if err != nil {
		t.Fatalf("redial against mismatched session: %v", err)
	}
	cl.gen = g
	m := cl.Mismatch()
	if m == nil || m.Seq != 2 {
		t.Fatalf("replayed verdict mismatch = %+v, want seq 2", m)
	}
	if !cl.stopped.Load() {
		t.Fatal("a replayed mismatch verdict must stop production")
	}
}

// TestParkedSessionHoldsNoChecker: a completed session parks with its
// verdict only. Its checker — REF memory and all — is dropped at once, not
// kept for the resume window.
func TestParkedSessionHoldsNoChecker(t *testing.T) {
	srv, spec := startServer(t, ServerConfig{
		NewSession: stubSessions(func() *stubChecker { return &stubChecker{} }),
	})
	cl, err := Dial(spec, testHello(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.SendItems([]wire.Item{{Type: 0, Payload: []byte{1}}}); err != nil {
		t.Fatal(err)
	}
	if v, err := cl.Finish(); err != nil || !v.Finished {
		t.Fatalf("Finish = %+v, %v", v, err)
	}
	// The server parks a completed session before it writes Done.
	srv.mu.Lock()
	sn := srv.parked[cl.Session()]
	srv.mu.Unlock()
	if sn == nil || sn.final == nil {
		t.Fatalf("completed session %d is not parked with its verdict", cl.Session())
	}
	if sn.sess != nil {
		t.Fatal("parked completed session still holds its SessionChecker")
	}
}

// TestSendItemsEncodeErrorReleasesScratch: an item the frame format cannot
// carry fails SendItems with the encode error before anything is sent or
// windowed, and the pooled scratch goes back to the pool.
func TestSendItemsEncodeErrorReleasesScratch(t *testing.T) {
	_, spec := startServer(t, ServerConfig{
		NewSession: stubSessions(func() *stubChecker { return &stubChecker{} }),
	})
	gets0, puts0 := event.PoolStats()
	cl, err := Dial(spec, testHello(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	stop, err := cl.SendItems([]wire.Item{{Type: 0, Payload: make([]byte, 1<<16)}})
	if err == nil || !stop || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("SendItems(65536-byte payload) = stop %v, err %v; want the encode error", stop, err)
	}
	cl.Close()
	if gets, puts := event.PoolStats(); gets-gets0 != puts-puts0 {
		t.Fatalf("pool imbalance after an encode error: %d gets vs %d puts", gets-gets0, puts-puts0)
	}
}

// TestSendOnStoppedSessionReleasesBuffer: once a verdict has stopped the
// session, a send hands its pooled buffer straight back instead of windowing
// it.
func TestSendOnStoppedSessionReleasesBuffer(t *testing.T) {
	_, spec := startServer(t, ServerConfig{
		NewSession: stubSessions(func() *stubChecker { return &stubChecker{mismatchAt: 1} }),
	})
	gets0, puts0 := event.PoolStats()
	cl, err := Dial(spec, testHello(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SendPacket(pooledPacket(8)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for cl.Verdict() == nil {
		if time.Now().After(deadline) {
			t.Fatal("mismatch verdict never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		if stop, err := cl.SendPacket(pooledPacket(8)); !stop || err != nil {
			t.Fatalf("send %d after the verdict: stop=%v err=%v", i, stop, err)
		}
	}
	cl.mu.Lock()
	windowed := len(cl.pending)
	cl.mu.Unlock()
	if windowed > 1 {
		t.Fatalf("%d frames windowed; sends after the verdict must not join the window", windowed)
	}
	cl.Close()
	if gets, puts := event.PoolStats(); gets-gets0 != puts-puts0 {
		t.Fatalf("pool imbalance: %d gets vs %d puts", gets-gets0, puts-puts0)
	}
}
