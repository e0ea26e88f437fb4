package transport

import (
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/faultnet"
	"repro/internal/wire"
)

// faultyFirstDial returns a Dial hook that routes the first connection
// through a faultnet wrapper with the given plan; every later dial is clean.
func faultyFirstDial(plan faultnet.Plan, j *faultnet.Journal) (func(string) (net.Conn, error), *atomic.Int32) {
	var dials atomic.Int32
	return func(spec string) (net.Conn, error) {
		sp, _ := ParseSpec(spec)
		nc, err := net.Dial(sp.Scheme, sp.Addr)
		if err != nil {
			return nil, err
		}
		if dials.Add(1) == 1 {
			return faultnet.New(nc, plan, j), nil
		}
		return nc, nil
	}, &dials
}

// resumeClientConfig is the fast-retry client every resume test uses.
func resumeClientConfig(dial func(string) (net.Conn, error)) ClientConfig {
	return ClientConfig{
		MaxRetries:  4,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		JitterSeed:  7,
		Dial:        dial,
	}
}

// runResumeSession drives one clean 30-item session through a client and
// asserts the final verdict is exactly what a fault-free run produces.
func runResumeSession(t *testing.T, cl *Client) {
	t.Helper()
	for i := 0; i < 30; i++ {
		stop, err := cl.SendItems([]wire.Item{{Type: 0, Payload: []byte{byte(i), 0x5a}}})
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if stop {
			t.Fatalf("send %d stopped a clean stream", i)
		}
	}
	v, err := cl.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !v.Finished || v.Mismatch != nil {
		t.Fatalf("verdict %+v, want clean finish", v)
	}
	if v.Events != 30 {
		t.Fatalf("server checked %d events, want exactly 30 (duplicate or lost frames)", v.Events)
	}
}

// TestResumeAfterMidFrameReset resets the first connection inside a data
// frame. The session resumes both with fast-retry tuning and with a
// zero-value ClientConfig against a default ServerConfig: recovery needs no
// option on either side.
func TestResumeAfterMidFrameReset(t *testing.T) {
	stub := stubSessions(func() *stubChecker { return &stubChecker{} })
	cases := []struct {
		name string
		srv  ServerConfig
		cl   func(dial func(string) (net.Conn, error)) ClientConfig
	}{
		{"tuned", ServerConfig{NewSession: stub, Window: 4, ResumeWindow: time.Minute}, resumeClientConfig},
		{"defaults", ServerConfig{NewSession: stub}, func(dial func(string) (net.Conn, error)) ClientConfig {
			return ClientConfig{Dial: dial}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gets0, puts0 := event.PoolStats()
			srv, spec := startServer(t, tc.srv)
			j := faultnet.NewJournal(1)
			// Write index 5 = Hello + 4 data frames; offset 10 is inside the
			// 24-byte frame header, so the server sees a mid-frame
			// ErrUnexpectedEOF.
			dial, dials := faultyFirstDial(faultnet.Plan{
				Seed:   1,
				Script: []faultnet.Op{{Index: 5, Kind: faultnet.Reset, Offset: 10}},
			}, j)
			cl, err := Dial(spec, testHello(), tc.cl(dial))
			if err != nil {
				t.Fatal(err)
			}
			runResumeSession(t, cl)
			cl.Close()

			if got := dials.Load(); got < 2 {
				t.Fatalf("%d dials; the reset should have forced a reconnect\n%s", got, j)
			}
			if cl.Reconnects() == 0 {
				t.Fatalf("Reconnects=0 after an injected reset\n%s", j)
			}
			if cl.ReplayedFrames() == 0 {
				t.Fatalf("ReplayedFrames=0: the mid-frame casualty was never retransmitted\n%s", j)
			}
			parked, resumed := srv.ResumeStats()
			if parked == 0 || resumed == 0 {
				t.Fatalf("server parked=%d resumed=%d, want both > 0\n%s", parked, resumed, j)
			}
			gets1, puts1 := event.PoolStats()
			if gets1-gets0 != puts1-puts0 {
				t.Fatalf("pool imbalance across resume: %d gets vs %d puts\n%s", gets1-gets0, puts1-puts0, j)
			}
		})
	}
}

func TestResumeAfterCorruptFrame(t *testing.T) {
	gets0, puts0 := event.PoolStats()
	srv, spec := startServer(t, ServerConfig{
		NewSession:   stubSessions(func() *stubChecker { return &stubChecker{} }),
		Window:       4,
		ResumeWindow: time.Minute,
	})
	j := faultnet.NewJournal(2)
	// Corrupt a byte in the 3rd data frame: the server's CRC32-C rejects the
	// frame, parks the session, and the clean windowed copy is retransmitted
	// — the checker never sees the mutated payload.
	dial, _ := faultyFirstDial(faultnet.Plan{
		Seed:   2,
		Script: []faultnet.Op{{Index: 3, Kind: faultnet.Corrupt, Offset: 30}},
	}, j)
	cl, err := Dial(spec, testHello(), resumeClientConfig(dial))
	if err != nil {
		t.Fatal(err)
	}
	runResumeSession(t, cl)
	cl.Close()
	j.Release()

	if cl.Reconnects() == 0 {
		t.Fatalf("Reconnects=0 after an injected corruption\n%s", j)
	}
	if _, resumed := srv.ResumeStats(); resumed == 0 {
		t.Fatalf("server never resumed the corrupted session\n%s", j)
	}
	gets1, puts1 := event.PoolStats()
	if gets1-gets0 != puts1-puts0 {
		t.Fatalf("pool imbalance across corrupt-resume: %d gets vs %d puts\n%s", gets1-gets0, puts1-puts0, j)
	}
}

func TestResumeAfterSilentStall(t *testing.T) {
	srv, spec := startServer(t, ServerConfig{
		NewSession:   stubSessions(func() *stubChecker { return &stubChecker{} }),
		Window:       4,
		IdleTimeout:  50 * time.Millisecond,
		ResumeWindow: time.Minute,
	})
	j := faultnet.NewJournal(3)
	// From write index 4 on, the first connection silently swallows every
	// byte: writes succeed, nothing arrives, no credits come back. Only the
	// client's stall timeout can notice.
	dial, _ := faultyFirstDial(faultnet.Plan{
		Seed:   3,
		Script: []faultnet.Op{{Index: 4, Kind: faultnet.Stall}},
	}, j)
	cfg := resumeClientConfig(dial)
	// Longer than the server's idle horizon so the session is parked (not
	// missing) by the time the client reconnects.
	cfg.StallTimeout = 300 * time.Millisecond
	cl, err := Dial(spec, testHello(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	runResumeSession(t, cl)
	cl.Close()

	if cl.Reconnects() == 0 {
		t.Fatalf("Reconnects=0: the stall was never detected\n%s", j)
	}
	if _, resumed := srv.ResumeStats(); resumed == 0 {
		t.Fatalf("server never resumed the stalled session\n%s", j)
	}
}

// TestDialTimeoutBoundsOnlyTheHandshake: DialTimeout bounds connect and
// handshake, never the reader that waits on credits and verdicts after it.
// The server's checker holds one frame four times longer than DialTimeout
// before its credit goes back; a handshake read deadline left armed on the
// reader would fail the session (dial) or force a second reconnect (resume).
func TestDialTimeoutBoundsOnlyTheHandshake(t *testing.T) {
	const dialTimeout = 250 * time.Millisecond
	t.Run("dial", func(t *testing.T) {
		_, spec := startServer(t, ServerConfig{
			NewSession: stubSessions(func() *stubChecker { return &stubChecker{hold: 4 * dialTimeout} }),
			Window:     4,
		})
		cl, err := Dial(spec, testHello(), ClientConfig{DialTimeout: dialTimeout})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		runResumeSession(t, cl)
	})
	t.Run("resume", func(t *testing.T) {
		// The first connection resets inside data frame 5, so the server has
		// checked 4 items when the retransmitted frame 5 reaches the hold.
		_, spec := startServer(t, ServerConfig{
			NewSession:   stubSessions(func() *stubChecker { return &stubChecker{hold: 4 * dialTimeout, holdAt: 4} }),
			Window:       4,
			ResumeWindow: time.Minute,
		})
		j := faultnet.NewJournal(1)
		dial, _ := faultyFirstDial(faultnet.Plan{
			Seed:   1,
			Script: []faultnet.Op{{Index: 5, Kind: faultnet.Reset, Offset: 10}},
		}, j)
		cfg := resumeClientConfig(dial)
		cfg.DialTimeout = dialTimeout
		cl, err := Dial(spec, testHello(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		runResumeSession(t, cl)
		if got := cl.Reconnects(); got != 1 {
			t.Fatalf("Reconnects=%d, want exactly the one the reset forced\n%s", got, j)
		}
	})
}

func TestResumeRetryBudgetExhaustion(t *testing.T) {
	gets0, puts0 := event.PoolStats()
	_, spec := startServer(t, ServerConfig{
		NewSession:   stubSessions(func() *stubChecker { return &stubChecker{} }),
		Window:       2,
		ResumeWindow: time.Minute,
	})
	j := faultnet.NewJournal(4)
	var dials atomic.Int32
	dial := func(spec string) (net.Conn, error) {
		if dials.Add(1) > 1 {
			return nil, errors.New("induced dial failure")
		}
		sp, _ := ParseSpec(spec)
		nc, err := net.Dial(sp.Scheme, sp.Addr)
		if err != nil {
			return nil, err
		}
		return faultnet.New(nc, faultnet.Plan{
			Seed:   4,
			Script: []faultnet.Op{{Index: 3, Kind: faultnet.Reset, Offset: 5}},
		}, j), nil
	}
	cfg := resumeClientConfig(dial)
	cfg.MaxRetries = 2
	cl, err := Dial(spec, testHello(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for i := 0; i < 50; i++ {
		var stop bool
		stop, lastErr = cl.SendItems([]wire.Item{{Type: 0, Payload: []byte{byte(i)}}})
		if stop || lastErr != nil {
			break
		}
	}
	if lastErr == nil {
		_, lastErr = cl.Finish()
	}
	if !errors.Is(lastErr, ErrSessionLost) {
		t.Fatalf("exhausted retry budget surfaced %v, want ErrSessionLost\n%s", lastErr, j)
	}
	if got := dials.Load(); got != 3 { // initial + MaxRetries failed redials
		t.Fatalf("%d dials, want 1 initial + 2 budgeted retries\n%s", got, j)
	}
	cl.Close()
	gets1, puts1 := event.PoolStats()
	if gets1-gets0 != puts1-puts0 {
		t.Fatalf("pool imbalance after budget exhaustion: %d gets vs %d puts\n%s",
			gets1-gets0, puts1-puts0, j)
	}
}

func TestResumeRefusedForUnknownSession(t *testing.T) {
	_, spec := startServer(t, ServerConfig{
		NewSession:   stubSessions(func() *stubChecker { return &stubChecker{} }),
		ResumeWindow: time.Minute,
	})
	sp, _ := ParseSpec(spec)
	nc, err := net.Dial(sp.Scheme, sp.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	conn := NewConn(nc)
	r := Resume{Proto: ProtoVersion, Session: 999, Token: 12345, Sent: 10}
	if err := conn.WriteFrame(FrameResume, EncodeControl(&r)); err != nil {
		t.Fatal(err)
	}
	fh, payload, err := conn.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	defer releaseBuf(payload)
	var ei ErrorInfo
	if fh.Type != FrameErrorInfo || DecodeControl(fh.Type, payload, &ei) != nil || ei.Code != "resume" {
		t.Fatalf("unknown-session resume answered frame %d %+v, want a resume refusal", fh.Type, ei)
	}
}

// TestReadFrameDistinguishesCleanEOFFromMidFrame pins the regression the
// reset-mid-frame fault exposed: a peer closing between frames is a clean
// io.EOF, a peer dying inside a frame is a typed *FrameError wrapping
// io.ErrUnexpectedEOF — the transport must never confuse the two.
func TestReadFrameDistinguishesCleanEOFFromMidFrame(t *testing.T) {
	t.Run("clean close between frames", func(t *testing.T) {
		a, b := net.Pipe()
		t.Cleanup(func() { b.Close() })
		cw, cr := NewConn(a), NewConn(b)
		go func() {
			cw.WriteFrame(FrameEnd, nil)
			a.Close()
		}()
		if _, _, err := cr.ReadFrame(); err != nil {
			t.Fatal(err)
		}
		_, _, err := cr.ReadFrame()
		if err != io.EOF {
			t.Fatalf("close at a frame boundary: got %v, want bare io.EOF", err)
		}
		var fe *FrameError
		if errors.As(err, &fe) {
			t.Fatal("clean end-of-stream wrapped in a *FrameError")
		}
	})

	t.Run("faultnet reset mid-frame", func(t *testing.T) {
		a, b := net.Pipe()
		t.Cleanup(func() { a.Close(); b.Close() })
		j := faultnet.NewJournal(5)
		// Reset 10 bytes into the second frame's 24-byte header.
		fc := NewConn(faultnet.New(a, faultnet.Plan{
			Seed:   5,
			Script: []faultnet.Op{{Index: 1, Kind: faultnet.Reset, Offset: 10}},
		}, j))
		cr := NewConn(b)
		go func() {
			fc.WriteFrame(FrameItems, []byte{1, 2, 3, 4})
			fc.WriteFrame(FrameItems, []byte{5, 6, 7, 8})
		}()
		h, buf, err := cr.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if h.Type != FrameItems {
			t.Fatalf("first frame type %d", h.Type)
		}
		releaseBuf(buf)
		_, _, err = cr.ReadFrame()
		var fe *FrameError
		if !errors.As(err, &fe) {
			t.Fatalf("mid-frame death: got %v, want a typed *FrameError\n%s", err, j)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("mid-frame death: got %v, want io.ErrUnexpectedEOF underneath\n%s", err, j)
		}
	})
}

// TestReadFrameRejectsCorruptionTyped: a flipped payload byte must surface
// as a *FrameError wrapping ErrBadChecksum, releasing the pooled buffer.
func TestReadFrameRejectsCorruptionTyped(t *testing.T) {
	gets0, puts0 := event.PoolStats()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	j := faultnet.NewJournal(6)
	fc := NewConn(faultnet.New(a, faultnet.Plan{
		Seed:   6,
		Script: []faultnet.Op{{Index: 0, Kind: faultnet.Corrupt, Offset: 40}},
	}, j))
	cr := NewConn(b)
	go fc.WriteFrame(FramePacket, make([]byte, 64))
	_, _, err := cr.ReadFrame()
	var fe *FrameError
	if !errors.As(err, &fe) || !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("corrupt frame: got %v, want *FrameError wrapping ErrBadChecksum\n%s", err, j)
	}
	j.Release()
	gets1, puts1 := event.PoolStats()
	if gets1-gets0 != puts1-puts0 {
		t.Fatalf("pool imbalance on corrupt frame: %d gets vs %d puts", gets1-gets0, puts1-puts0)
	}
}

// FuzzResumeFrame throws corrupt and truncated Resume control frames at a
// live server connection: every input must produce a frame-level refusal or
// a typed error — never a panic, never a pool imbalance.
func FuzzResumeFrame(f *testing.F) {
	f.Add([]byte(`{"session":1,"token":2,"sent":3}`), false)
	f.Add([]byte(`{"session":`), false)
	f.Add([]byte{0xff, 0xfe, 0x00}, true)
	f.Add([]byte{}, true)
	f.Fuzz(func(t *testing.T, payload []byte, truncate bool) {
		gets0, puts0 := event.PoolStats()
		srv := NewServer(ServerConfig{
			NewSession:       stubSessions(func() *stubChecker { return &stubChecker{} }),
			ResumeWindow:     time.Minute,
			HandshakeTimeout: 2 * time.Second,
			WriteTimeout:     2 * time.Second,
		})
		a, b := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.serveSession(NewConn(b))
			b.Close()
		}()
		conn := NewConn(a)
		conn.WriteTimeout = 2 * time.Second
		conn.ReadTimeout = 2 * time.Second
		if truncate {
			// A frame that announces more payload than it delivers: the
			// server must see a mid-frame error, not hang or panic.
			h := FrameHeader{Magic: FrameMagic, Type: FrameResume, Length: uint32(len(payload) + 7)}
			h.Check = h.Sum(nil) // deliberately wrong for the real payload
			raw := h.AppendTo(nil)
			raw = append(raw, payload...)
			a.SetWriteDeadline(time.Now().Add(2 * time.Second))
			a.Write(raw)
			a.Close()
		} else {
			if err := conn.WriteFrame(FrameResume, payload); err == nil {
				// A malformed Resume earns a refusal; drain it so the
				// server's write completes.
				for {
					_, buf, err := conn.ReadFrame()
					releaseBuf(buf)
					if err != nil {
						break
					}
				}
			}
			a.Close()
		}
		<-done
		gets1, puts1 := event.PoolStats()
		if gets1-gets0 != puts1-puts0 {
			t.Fatalf("pool imbalance: %d gets vs %d puts", gets1-gets0, puts1-puts0)
		}
	})
}

// FuzzFaultedFrameStream runs a seeded probabilistic faultnet between a
// frame writer and reader: whatever the chaos does, the reader must finish
// with a clean io.EOF or a typed *FrameError — never a panic, never a
// leaked pooled buffer.
func FuzzFaultedFrameStream(f *testing.F) {
	f.Add(int64(1), uint8(4), []byte("abcdefgh"))
	f.Add(int64(99), uint8(9), []byte{})
	f.Add(int64(-7), uint8(2), []byte{0xde, 0xad, 0xbe, 0xef})
	f.Fuzz(func(t *testing.T, seed int64, nframes uint8, payload []byte) {
		if len(payload) > 1<<12 {
			payload = payload[:1<<12]
		}
		gets0, puts0 := event.PoolStats()
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		j := faultnet.NewJournal(seed)
		fw := NewConn(faultnet.New(a, faultnet.Plan{
			Seed:     seed,
			PCorrupt: 0.2, PReset: 0.1, PPartial: 0.3, PShortRead: 0.5,
		}, j))
		cr := NewConn(b)

		wdone := make(chan struct{})
		go func() {
			defer close(wdone)
			for i := 0; i < int(nframes)+1; i++ {
				if err := fw.WriteFrame(FramePacket, payload); err != nil {
					break
				}
			}
			a.Close()
		}()
		var streamErr error
		for {
			_, buf, err := cr.ReadFrame()
			releaseBuf(buf)
			if err != nil {
				streamErr = err
				break
			}
		}
		// Unblock a writer stuck mid-pipe (the reader gave up on an error)
		// and wait for it: journal adoption happens on the writer goroutine,
		// so the pool-balance check below must not race it.
		b.Close()
		<-wdone
		j.Release()
		if streamErr != io.EOF {
			var fe *FrameError
			if !errors.As(streamErr, &fe) {
				t.Fatalf("mangled stream produced an untyped error %T: %v\n%s", streamErr, streamErr, j)
			}
		}
		gets1, puts1 := event.PoolStats()
		if gets1-gets0 != puts1-puts0 {
			t.Fatalf("pool imbalance: %d gets vs %d puts\n%s", gets1-gets0, puts1-puts0, j)
		}
	})
}
