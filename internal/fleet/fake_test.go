package fleet

import (
	"encoding/json"
	"net"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/transport"
	"repro/internal/wire"
)

// fakeShard accepts framed connections and runs script on each — a shard
// that misbehaves in exactly the way a test needs. Scripts must answer
// FrameStats polls themselves (or not), since the router's health poller
// dials in too.
func fakeShard(t *testing.T, script func(conn transport.FrameTransport)) string {
	t.Helper()
	spec := "unix:" + filepath.Join(t.TempDir(), "fake.sock")
	l, err := transport.Listen(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.AcceptFrame()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				script(conn)
			}()
		}
	}()
	return spec
}

// healthyStats answers one inbound frame if it is a stats poll, so a fake
// shard stays in placement. Returns the frame for the script to handle and
// whether it was already consumed.
func answerStats(conn transport.FrameTransport) (transport.FrameHeader, []byte, bool) {
	h, payload, err := conn.ReadFrame()
	if err != nil {
		return h, nil, true
	}
	if h.Type == transport.FrameStats {
		conn.ReleasePayload(payload)
		b, _ := json.Marshal(&transport.StatsInfo{Window: 4})
		conn.WriteFrame(transport.FrameStats, b)
		return h, nil, true
	}
	return h, payload, false
}

// TestRouterDialHookAndLogf: a Config.DialShard hook carries every
// router→shard connection (sessions and health polls alike), and Logf sees
// lifecycle lines.
func TestRouterDialHookAndLogf(t *testing.T) {
	_, spec := startShard(t, transport.ServerConfig{NewSession: stubNewSession, Window: 4})
	var dials, logs atomic.Int64
	r, rspec, _ := startRouter(t, Config{
		Shards:        []string{spec},
		StatsInterval: 20 * time.Millisecond,
		DialTimeout:   2 * time.Second,
		DialShard: func(addr string) (net.Conn, error) {
			dials.Add(1)
			sp, err := transport.ParseSpec(addr)
			if err != nil {
				return nil, err
			}
			return net.DialTimeout(sp.Scheme, sp.Addr, 2*time.Second)
		},
		Logf: func(format string, args ...any) { logs.Add(1) },
	})

	conn, _ := openRaw(t, rspec, stubHello("", 9))
	sendPacket(t, conn, []byte("frame"))
	if err := conn.WriteFrame(transport.FrameEnd, nil); err != nil {
		t.Fatal(err)
	}
	var fin transport.Verdict
	readCtl(t, conn, transport.FrameDone, &fin)
	if !fin.Finished || fin.Events != 1 {
		t.Fatalf("hooked-dial session verdict %+v", fin)
	}
	if logs.Load() == 0 {
		t.Error("Logf never called across a full session lifecycle")
	}
	// At least one health poll + the session backend, all through the hook.
	waitFor(t, 5*time.Second, "dial hook to carry a poll and the session", func() bool {
		return dials.Load() >= 2
	})
	waitFor(t, 5*time.Second, "hooked shard to be polled healthy", func() bool {
		rows := r.StatsInfo().Shards
		return len(rows) == 1 && rows[0].State == StateHealthy
	})
}

// TestRouterShardHandshakeFailures: shards that grant a zero-token window,
// answer the Hello with the wrong frame kind, or send a corrupt Welcome are
// all skipped over — and with no other shard, admission is refused.
func TestRouterShardHandshakeFailures(t *testing.T) {
	cases := []struct {
		name  string
		reply func(conn transport.FrameTransport)
	}{
		{"zero-token-window", func(conn transport.FrameTransport) {
			b, _ := json.Marshal(&transport.Welcome{Proto: transport.ProtoVersion, Session: 1, Tokens: 0})
			conn.WriteFrame(transport.FrameWelcome, b)
		}},
		{"wrong-frame-kind", func(conn transport.FrameTransport) {
			conn.WriteFrame(transport.FrameEnd, nil)
		}},
		{"corrupt-welcome", func(conn transport.FrameTransport) {
			conn.WriteFrame(transport.FrameWelcome, []byte("{"))
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			spec := fakeShard(t, func(conn transport.FrameTransport) {
				h, payload, done := answerStats(conn)
				if done {
					return
				}
				conn.ReleasePayload(payload)
				if h.Type == transport.FrameHello {
					c.reply(conn)
				}
			})
			_, rspec, _ := startRouter(t, Config{
				Shards: []string{spec}, StatsInterval: time.Second, DialTimeout: 2 * time.Second,
			})
			conn := dialRaw(t, rspec)
			writeCtl(t, conn, transport.FrameHello, stubHello("", 1))
			expectRefusal(t, conn, "overloaded")
		})
	}
}

// TestRouterShardStreamCorruption: a shard speaking garbage mid-session
// (a ResumeOK out of nowhere) is corruption-grade — the attachment dies and
// the session is dropped, not migrated onto another victim.
func TestRouterShardStreamCorruption(t *testing.T) {
	spec := fakeShard(t, func(conn transport.FrameTransport) {
		for {
			h, payload, done := answerStats(conn)
			if done {
				if payload == nil && h.Type != transport.FrameStats {
					return // read error
				}
				continue
			}
			conn.ReleasePayload(payload)
			//lint:ignore framekind scripted misbehaving shard answers only the frames the test sends
			switch h.Type {
			case transport.FrameHello:
				b, _ := json.Marshal(&transport.Welcome{Proto: transport.ProtoVersion, Session: 1, Tokens: 4})
				conn.WriteFrame(transport.FrameWelcome, b)
			case transport.FramePacket:
				conn.WriteFrame(transport.FrameResumeOK, []byte("{}"))
				return
			default:
				return
			}
		}
	})
	r, rspec, _ := startRouter(t, Config{
		Shards: []string{spec}, StatsInterval: time.Second, DialTimeout: 2 * time.Second,
	})
	conn, _ := openRaw(t, rspec, stubHello("", 1))
	if err := conn.WriteFrame(transport.FramePacket, []byte("frame")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := conn.ReadFrame(); err == nil {
		t.Fatal("connection survived shard stream corruption")
	}
	waitFor(t, 5*time.Second, "corrupted session to be dropped", func() bool {
		return r.Sessions() == 0
	})
}

// TestRouterPollMarksBadStatsDown: a shard that answers health polls with
// the wrong frame kind is withdrawn from placement.
func TestRouterPollMarksBadStatsDown(t *testing.T) {
	spec := fakeShard(t, func(conn transport.FrameTransport) {
		if _, _, err := conn.ReadFrame(); err != nil {
			return
		}
		conn.WriteFrame(transport.FrameEnd, nil)
	})
	r, _, _ := startRouter(t, Config{
		Shards: []string{spec}, StatsInterval: 5 * time.Millisecond, DialTimeout: 2 * time.Second,
	})
	waitFor(t, 5*time.Second, "bad-stats shard to be marked down", func() bool {
		rows := r.StatsInfo().Shards
		return len(rows) == 1 && rows[0].State == StateDown
	})
}

// mismatchChecker is a stub whose second data frame diagnoses a fixed
// mismatch — deterministically re-diagnosable, which is exactly what a
// migrated session's retransmission must reproduce.
type mismatchChecker struct{ events uint64 }

var stubMismatch = &checker.Mismatch{Core: 1, Seq: 2, PC: 0x80000040, Detail: "stub drift"}

func (c *mismatchChecker) Packet(buf []byte) (*checker.Mismatch, error) {
	c.events++
	if c.events == 2 {
		return stubMismatch, nil
	}
	return nil, nil
}

func (c *mismatchChecker) Items(items []wire.Item) (*checker.Mismatch, error) {
	c.events += uint64(len(items))
	return nil, nil
}

func (c *mismatchChecker) Finish() (transport.Final, error) { return transport.Final{}, nil }
func (c *mismatchChecker) Events() uint64                   { return c.events }

// TestRouterVerdictSurvivesMigration: a mismatch diagnosed before the shard
// dies must come back identical after migration — carried in the ResumeOK,
// re-diagnosed by the fresh shard as the client retransmits, and counted
// exactly once.
func TestRouterVerdictSurvivesMigration(t *testing.T) {
	newMismatch := func(transport.Hello) (transport.SessionChecker, error) {
		return &mismatchChecker{}, nil
	}
	servers := make(map[string]*transport.Server, 2)
	var shards []string
	for i := 0; i < 2; i++ {
		srv, spec := startShard(t, transport.ServerConfig{NewSession: newMismatch, Window: 4})
		shards = append(shards, spec)
		servers[canonSpec(t, spec)] = srv
	}
	r, rspec, _ := startRouter(t, Config{
		Shards: shards, StatsInterval: 20 * time.Millisecond,
		DialTimeout: 2 * time.Second, ResumeWindow: time.Minute,
	})

	conn, w := openRaw(t, rspec, stubHello("", 5))
	sendPacket(t, conn, []byte("frame"))
	sendPacket(t, conn, []byte("frame"))
	var v transport.Verdict
	readCtl(t, conn, transport.FrameVerdict, &v)
	if v.Mismatch == nil || v.Mismatch.Detail != stubMismatch.Detail {
		t.Fatalf("verdict %+v lost the diagnosis", v)
	}
	sendPacket(t, conn, []byte("frame"))

	killShard(servers[shardHosting(r)])
	readCtl(t, conn, transport.FrameRedirect, nil)
	conn.Close()

	conn2 := dialRaw(t, rspec)
	writeCtl(t, conn2, transport.FrameResume, &transport.Resume{
		Proto: transport.ProtoVersion, Session: w.Session, Token: w.ResumeToken,
		Sent: 3,
	})
	var ok transport.ResumeOK
	readCtl(t, conn2, transport.FrameResumeOK, &ok)
	if !ok.Migrated || ok.Have != 0 || ok.Verdict == nil || ok.Verdict.Mismatch == nil {
		t.Fatalf("migrated resume lost the verdict: %+v", ok)
	}
	if got := ok.Verdict.Mismatch.Detail; got != stubMismatch.Detail {
		t.Fatalf("carried diagnosis %q, want %q", got, stubMismatch.Detail)
	}
	// The client retransmits all three frames; the fresh shard re-diagnoses
	// the mismatch at the second, so the stream carries the (byte-identical)
	// verdict again right after that frame's credit.
	for i := 0; i < 3; i++ {
		if err := conn2.WriteFrame(transport.FramePacket, []byte("frame")); err != nil {
			t.Fatal(err)
		}
	}
	readCtl(t, conn2, transport.FrameCredit, nil)
	readCtl(t, conn2, transport.FrameCredit, nil)
	var again transport.Verdict
	readCtl(t, conn2, transport.FrameVerdict, &again)
	if again.Mismatch == nil || again.Mismatch.Detail != stubMismatch.Detail {
		t.Fatalf("re-diagnosed verdict %+v diverged", again)
	}
	readCtl(t, conn2, transport.FrameCredit, nil)
	if err := conn2.WriteFrame(transport.FrameEnd, nil); err != nil {
		t.Fatal(err)
	}
	var fin transport.Verdict
	readCtl(t, conn2, transport.FrameDone, &fin)
	if fin.Mismatch == nil || fin.Mismatch.Detail != stubMismatch.Detail {
		t.Fatalf("final verdict %+v lost the diagnosis", fin)
	}
	if st := r.StatsInfo(); st.Mismatches != 1 {
		t.Errorf("mismatch counted %d times across the migration, want once", st.Mismatches)
	}
}

// TestRouterReplayBoundedByShardWindow: a retransmitted stream longer than
// the window flows into the fresh shard under its credits, and the router
// swallows exactly Sent − window of them. The client (like transport.Client)
// writes its whole tail before reading, holds tokens for only the last
// window of it, and must see exactly that many credits: one fewer swallowed
// puts a stray credit ahead of Done, one more leaves it waiting on a credit
// that never comes.
func TestRouterReplayBoundedByShardWindow(t *testing.T) {
	servers := make(map[string]*transport.Server, 2)
	var shards []string
	for i := 0; i < 2; i++ {
		srv, spec := startShard(t, transport.ServerConfig{NewSession: stubNewSession, Window: 2})
		shards = append(shards, spec)
		servers[canonSpec(t, spec)] = srv
	}
	r, rspec, _ := startRouter(t, Config{
		Shards: shards, StatsInterval: 20 * time.Millisecond,
		DialTimeout: 2 * time.Second, ResumeWindow: time.Minute,
	})

	conn, w := openRaw(t, rspec, stubHello("", 6))
	if w.Tokens != 2 {
		t.Fatalf("window %d, want the shard's 2", w.Tokens)
	}
	for i := 0; i < 5; i++ {
		sendPacket(t, conn, []byte("frame"))
	}
	killShard(servers[shardHosting(r)])
	readCtl(t, conn, transport.FrameRedirect, nil)
	conn.Close()

	conn2 := dialRaw(t, rspec)
	writeCtl(t, conn2, transport.FrameResume, &transport.Resume{
		Proto: transport.ProtoVersion, Session: w.Session, Token: w.ResumeToken,
		Sent: 5,
	})
	var ok transport.ResumeOK
	readCtl(t, conn2, transport.FrameResumeOK, &ok)
	if ok.Have != 0 || !ok.Migrated {
		t.Fatalf("resume %+v, want Have=0 Migrated=true", ok)
	}
	for i := 0; i < 5; i++ {
		if err := conn2.WriteFrame(transport.FramePacket, []byte("frame")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ { // 5 − 2 swallowed
		var cr transport.Credit
		readCtl(t, conn2, transport.FrameCredit, &cr)
		if cr.Ack != 0 {
			t.Fatalf("tail credit %d has Ack=%d, want 0", i, cr.Ack)
		}
	}
	if ack := sendPacket(t, conn2, []byte("frame")); ack != 0 {
		t.Fatalf("post-retransmission credit has Ack=%d, want 0", ack)
	}
	if err := conn2.WriteFrame(transport.FrameEnd, nil); err != nil {
		t.Fatal(err)
	}
	var fin transport.Verdict
	readCtl(t, conn2, transport.FrameDone, &fin)
	if fin.Events != 6 {
		t.Fatalf("rebuilt session checked %d events, want 6", fin.Events)
	}
}
