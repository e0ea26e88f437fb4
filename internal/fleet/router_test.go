package fleet

import (
	"strings"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/transport"
)

// stubFleet starts n stub shards and a router over them, returning the
// router, its spec, and the shards keyed by canonical address.
func stubFleet(t *testing.T, n int, cfg Config) (*Router, string, map[string]*transport.Server) {
	t.Helper()
	servers := make(map[string]*transport.Server, n)
	for i := 0; i < n; i++ {
		srv, spec := startShard(t, transport.ServerConfig{NewSession: stubNewSession, Window: 4})
		cfg.Shards = append(cfg.Shards, spec)
		servers[canonSpec(t, spec)] = srv
	}
	if cfg.StatsInterval == 0 {
		cfg.StatsInterval = 20 * time.Millisecond
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	r, spec, _ := startRouter(t, cfg)
	return r, spec, servers
}

// TestRouterSessionEndToEnd drives one full session through the router at
// the frame level: Hello → rewritten Welcome, data frames forwarded and
// credited with Ack zeroed (no shard ack survives a rebuild, so the client
// must keep its whole stream), End → Done with the shard's verdict.
func TestRouterSessionEndToEnd(t *testing.T) {
	r, spec, _ := stubFleet(t, 2, Config{})
	conn, w := openRaw(t, spec, stubHello("", 1))
	if w.Proto != transport.ProtoVersion || w.Session == 0 {
		t.Fatalf("bad welcome: %+v", w)
	}
	if w.ResumeToken == 0 {
		t.Fatalf("router sessions must always be resumable (migration needs it): %+v", w)
	}
	if w.Tokens != 4 {
		t.Fatalf("unquota'd tenant got window %d, want the shard's 4", w.Tokens)
	}
	for i := 1; i <= 3; i++ {
		if ack := sendPacket(t, conn, []byte("frame")); ack != 0 {
			t.Fatalf("credit for frame %d forwarded with Ack=%d, want 0", i, ack)
		}
	}
	if err := conn.WriteFrame(transport.FrameEnd, nil); err != nil {
		t.Fatal(err)
	}
	var v transport.Verdict
	readCtl(t, conn, transport.FrameDone, &v)
	if !v.Finished || v.TrapCode != stubTrapCode || v.Events != 3 {
		t.Fatalf("done verdict %+v, want finished trap=%d events=3", v, stubTrapCode)
	}
	if st := r.StatsInfo(); st.Served != 1 || st.Mismatches != 0 {
		t.Errorf("router stats after one clean session: %+v", st)
	}
}

// TestRouterQuotaAndFairShare pins the tenant policy end to end: the share
// scales the Welcome window, the session cap refuses the tenant's excess
// Hello while another tenant proceeds, and a delivered final verdict frees
// the slot.
func TestRouterQuotaAndFairShare(t *testing.T) {
	r, spec, _ := stubFleet(t, 2, Config{
		Quotas: map[string]Quota{"ci": {MaxSessions: 1, Share: 0.5}},
	})

	holder, w := openRaw(t, spec, stubHello("ci", 1))
	if w.Tokens != 2 {
		t.Fatalf("ci window %d, want 2 (share 0.5 of the shard's 4)", w.Tokens)
	}

	over := dialRaw(t, spec)
	writeCtl(t, over, transport.FrameHello, stubHello("ci", 2))
	ei := expectRefusal(t, over, "quota")
	if !strings.Contains(ei.Msg, `"ci"`) {
		t.Errorf("quota refusal does not name the tenant: %s", ei.Msg)
	}
	if r.Refused() != 1 {
		t.Errorf("Refused() = %d, want 1", r.Refused())
	}

	// Another tenant is not throttled by ci's quota, and with no policy of
	// its own gets the shard's full window.
	otherConn, ow := openRaw(t, spec, stubHello("dev", 3))
	if ow.Tokens != 4 {
		t.Fatalf("dev window %d, want the shard's 4", ow.Tokens)
	}
	otherConn.Close()

	// Completing the held session frees the quota slot immediately.
	sendPacket(t, holder, []byte("frame"))
	if err := holder.WriteFrame(transport.FrameEnd, nil); err != nil {
		t.Fatal(err)
	}
	readCtl(t, holder, transport.FrameDone, nil)
	_, w3 := openRaw(t, spec, stubHello("ci", 4))
	if w3.Session == 0 {
		t.Fatal("ci refused after its previous session completed")
	}
}

// TestRouterMigrationRaw is the migration protocol pinned frame by frame:
// kill the hosting shard mid-session, the client is redirected, resumes, and
// the router opens a fresh session on the other shard. It answers Have=0,
// the client retransmits frames 1–3 and goes on with frame 4, and every
// credit (the three retransmissions fit the window, so none is swallowed)
// reaches the client with Ack zeroed.
func TestRouterMigrationRaw(t *testing.T) {
	r, spec, servers := stubFleet(t, 2, Config{ResumeWindow: time.Minute})

	conn, w := openRaw(t, spec, stubHello("", 7))
	for i := uint64(1); i <= 3; i++ {
		sendPacket(t, conn, []byte("frame"))
	}
	host := shardHosting(r)
	if host == "" {
		t.Fatal("no shard reports the live session")
	}
	killShard(servers[host])

	var red transport.Redirect
	readCtl(t, conn, transport.FrameRedirect, &red)
	if red.Reason == "" {
		t.Error("redirect carries no reason")
	}
	conn.Close()

	conn2 := dialRaw(t, spec)
	writeCtl(t, conn2, transport.FrameResume, &transport.Resume{
		Proto: transport.ProtoVersion, Session: w.Session, Token: w.ResumeToken,
		Sent: 3,
	})
	var ok transport.ResumeOK
	readCtl(t, conn2, transport.FrameResumeOK, &ok)
	if ok.Have != 0 || !ok.Migrated {
		t.Fatalf("resume landed wrong: %+v, want Have=0 Migrated=true", ok)
	}
	for i := 1; i <= 4; i++ {
		if ack := sendPacket(t, conn2, []byte("frame")); ack != 0 {
			t.Fatalf("post-migration credit for frame %d has Ack=%d, want 0", i, ack)
		}
	}
	if err := conn2.WriteFrame(transport.FrameEnd, nil); err != nil {
		t.Fatal(err)
	}
	var v transport.Verdict
	readCtl(t, conn2, transport.FrameDone, &v)
	if !v.Finished || v.Events != 4 {
		t.Fatalf("post-migration verdict %+v, want finished with 4 events", v)
	}
	if r.Migrations() != 1 {
		t.Errorf("Migrations() = %d, want 1", r.Migrations())
	}
}

// TestRouterDrainRedirect: draining a shard redirects its live sessions,
// the resumed session migrates, and undrain hands the shard back to the
// health poller (down until a poll answers, healthy after).
func TestRouterDrainRedirect(t *testing.T) {
	r, spec, _ := stubFleet(t, 2, Config{ResumeWindow: time.Minute})
	conn, w := openRaw(t, spec, stubHello("", 9))
	sendPacket(t, conn, []byte("frame"))
	host := shardHosting(r)

	// Admin round trip over the wire, not the Go API: this is what the
	// difftest-fleet -drain verb sends.
	admin := dialRaw(t, spec)
	writeCtl(t, admin, transport.FrameDrain, &transport.DrainRequest{Shard: host})
	var reply transport.DrainReply
	readCtl(t, admin, transport.FrameDrain, &reply)
	if reply.State != StateDraining || reply.Redirected != 1 {
		t.Fatalf("drain reply %+v, want draining with 1 redirect", reply)
	}
	readCtl(t, conn, transport.FrameRedirect, nil)
	conn.Close()

	conn2 := dialRaw(t, spec)
	writeCtl(t, conn2, transport.FrameResume, &transport.Resume{
		Proto: transport.ProtoVersion, Session: w.Session, Token: w.ResumeToken,
		Sent: 1,
	})
	var ok transport.ResumeOK
	readCtl(t, conn2, transport.FrameResumeOK, &ok)
	if !ok.Migrated {
		t.Fatal("session resumed onto the draining shard")
	}
	if err := conn2.WriteFrame(transport.FrameEnd, nil); err != nil {
		t.Fatal(err)
	}
	readCtl(t, conn2, transport.FrameDone, nil)

	admin2 := dialRaw(t, spec)
	writeCtl(t, admin2, transport.FrameDrain, &transport.DrainRequest{Shard: host, Undrain: true})
	var reply2 transport.DrainReply
	readCtl(t, admin2, transport.FrameDrain, &reply2)
	if reply2.State != StateDown {
		t.Fatalf("undrained shard is %q, want down until a poll answers", reply2.State)
	}
	waitFor(t, 5*time.Second, "health poll to restore the undrained shard", func() bool {
		for _, row := range r.StatsInfo().Shards {
			if row.Addr == host {
				return row.State == StateHealthy
			}
		}
		return false
	})

	// Unknown shards are refused by the admin path.
	admin3 := dialRaw(t, spec)
	writeCtl(t, admin3, transport.FrameDrain, &transport.DrainRequest{Shard: "tcp://nope:1"})
	expectRefusal(t, admin3, "decode")
}

// TestRouterFinalVerdictReplay: a client that completed its run but lost the
// Done frame resumes and receives the final verdict in the ResumeOK — as
// often as it needs to, until the resume window reaps the record.
func TestRouterFinalVerdictReplay(t *testing.T) {
	r, spec, _ := stubFleet(t, 1, Config{ResumeWindow: time.Minute})
	gets0, puts0 := event.PoolStats()
	conn, w := openRaw(t, spec, stubHello("", 11))
	const sent = 3
	for i := 0; i < sent; i++ {
		sendPacket(t, conn, []byte("frame"))
	}
	if err := conn.WriteFrame(transport.FrameEnd, nil); err != nil {
		t.Fatal(err)
	}
	readCtl(t, conn, transport.FrameDone, nil)
	conn.Close() // pretend the Done frame was lost on the way

	// A completed session holds no pooled buffer, though the record stays
	// parked. The pool counters are process-wide, so buffers an earlier
	// test still held at gets0 may come back too: every get since then must
	// be matched.
	if r.Sessions() != 1 {
		t.Fatal("completed session not parked for final-verdict replay")
	}
	waitFor(t, 2*time.Second, "pools to balance after Done", func() bool {
		gets, puts := event.PoolStats()
		return puts-puts0 >= gets-gets0
	})

	for try := 0; try < 2; try++ {
		c := dialRaw(t, spec)
		writeCtl(t, c, transport.FrameResume, &transport.Resume{
			Proto: transport.ProtoVersion, Session: w.Session, Token: w.ResumeToken,
			Sent: sent,
		})
		var ok transport.ResumeOK
		readCtl(t, c, transport.FrameResumeOK, &ok)
		if ok.Final == nil || !ok.Final.Finished || ok.Final.TrapCode != stubTrapCode {
			t.Fatalf("try %d: resume did not replay the final verdict: %+v", try, ok)
		}
		if ok.Have != sent {
			t.Fatalf("try %d: final replay reports Have=%d, want the %d frames sent", try, ok.Have, sent)
		}
		c.Close()
	}

	// The frame count survives completion: a client claiming fewer frames
	// than the router forwarded is still refused.
	c := dialRaw(t, spec)
	writeCtl(t, c, transport.FrameResume, &transport.Resume{
		Proto: transport.ProtoVersion, Session: w.Session, Token: w.ResumeToken,
		Sent: sent - 1,
	})
	expectRefusal(t, c, "resume")
	c.Close()
}

// TestRouterResumeRefusals covers the resume sanity checks: wrong token,
// unknown session, and a client claiming fewer sent frames than the router
// forwarded.
func TestRouterResumeRefusals(t *testing.T) {
	_, spec, _ := stubFleet(t, 1, Config{ResumeWindow: time.Minute})
	conn, w := openRaw(t, spec, stubHello("", 13))
	sendPacket(t, conn, []byte("frame"))
	sendPacket(t, conn, []byte("frame"))
	conn.Close()

	cases := []transport.Resume{
		{Proto: transport.ProtoVersion, Session: w.Session, Token: w.ResumeToken ^ 2, Sent: 2},
		{Proto: transport.ProtoVersion, Session: w.Session + 77, Token: w.ResumeToken, Sent: 2},
		{Proto: transport.ProtoVersion, Session: w.Session, Token: w.ResumeToken, Sent: 1},
	}
	for i, req := range cases {
		c := dialRaw(t, spec)
		writeCtl(t, c, transport.FrameResume, &req)
		expectRefusal(t, c, "resume")
		c.Close()
		_ = i
	}

	// A stale protocol version is refused before any lookup.
	c := dialRaw(t, spec)
	writeCtl(t, c, transport.FrameResume, &transport.Resume{Proto: 99, Session: w.Session, Token: w.ResumeToken})
	expectRefusal(t, c, "resume")
}

// TestRouterKicksStaleAttachment: a resume for a session that still has a
// live (but silently stalled) connection kicks the old attachment, and the
// new connection carries on against a fresh shard session — it retransmits
// its one frame, sends a second, and the shard checks exactly two.
func TestRouterKicksStaleAttachment(t *testing.T) {
	_, spec, _ := stubFleet(t, 1, Config{ResumeWindow: time.Minute})
	conn, w := openRaw(t, spec, stubHello("", 15))
	sendPacket(t, conn, []byte("frame"))

	conn2 := dialRaw(t, spec)
	writeCtl(t, conn2, transport.FrameResume, &transport.Resume{
		Proto: transport.ProtoVersion, Session: w.Session, Token: w.ResumeToken,
		Sent: 1,
	})
	var ok transport.ResumeOK
	readCtl(t, conn2, transport.FrameResumeOK, &ok)
	if ok.Have != 0 || ok.Migrated {
		t.Fatalf("resume over a live attachment: %+v, want Have=0 on the same shard", ok)
	}
	if _, _, err := conn.ReadFrame(); err == nil {
		t.Fatal("kicked connection still readable")
	}
	for i := 1; i <= 2; i++ {
		if ack := sendPacket(t, conn2, []byte("frame")); ack != 0 {
			t.Fatalf("post-kick credit for frame %d has Ack=%d, want 0", i, ack)
		}
	}
	if err := conn2.WriteFrame(transport.FrameEnd, nil); err != nil {
		t.Fatal(err)
	}
	var fin transport.Verdict
	readCtl(t, conn2, transport.FrameDone, &fin)
	if fin.Events != 2 {
		t.Fatalf("rebuilt session checked %d events, want 2", fin.Events)
	}
}

// TestRouterHandshakeRefusals: bad first frames and protocol drift are
// refused with diagnoses, exactly like a bare shard.
func TestRouterHandshakeRefusals(t *testing.T) {
	_, spec, _ := stubFleet(t, 1, Config{})

	c := dialRaw(t, spec)
	if err := c.WriteFrame(transport.FrameCredit, []byte("{}")); err != nil {
		t.Fatal(err)
	}
	expectRefusal(t, c, "handshake")

	c2 := dialRaw(t, spec)
	h := stubHello("", 1)
	h.Proto = 99
	writeCtl(t, c2, transport.FrameHello, &h)
	expectRefusal(t, c2, "handshake")

	// The shard's own client-level refusal (wire-digest drift) is relayed
	// verbatim, not wrapped.
	c3 := dialRaw(t, spec)
	h3 := stubHello("", 1)
	h3.WireDigest++
	writeCtl(t, c3, transport.FrameHello, &h3)
	ei := expectRefusal(t, c3, "handshake")
	if !strings.Contains(ei.Msg, "digest") {
		t.Errorf("digest-drift refusal lost the shard's diagnosis: %s", ei.Msg)
	}
}

// TestRouterMidSessionProtocolError: a control frame where data belongs is
// fatal — diagnosed to the client and the session dropped, not parked.
func TestRouterMidSessionProtocolError(t *testing.T) {
	r, spec, _ := stubFleet(t, 1, Config{ResumeWindow: time.Minute})
	conn, w := openRaw(t, spec, stubHello("", 17))
	writeCtl(t, conn, transport.FrameVerdict, &transport.Verdict{})
	expectRefusal(t, conn, "decode")

	waitFor(t, 5*time.Second, "fatal session to be dropped", func() bool {
		return r.Sessions() == 0
	})
	c := dialRaw(t, spec)
	writeCtl(t, c, transport.FrameResume, &transport.Resume{
		Proto: transport.ProtoVersion, Session: w.Session, Token: w.ResumeToken, Sent: 0,
	})
	expectRefusal(t, c, "resume")
}

// TestRouterStatsOverWire: the FrameStats loop a load balancer or the
// difftest-fleet -stats verb polls, including the per-shard rows.
func TestRouterStatsOverWire(t *testing.T) {
	r, spec, _ := stubFleet(t, 2, Config{})
	waitFor(t, 5*time.Second, "first shard poll", func() bool {
		return r.StatsInfo().Window > 0
	})

	conn := dialRaw(t, spec)
	for poll := 0; poll < 2; poll++ {
		if err := conn.WriteFrame(transport.FrameStats, nil); err != nil {
			t.Fatal(err)
		}
		var st transport.StatsInfo
		readCtl(t, conn, transport.FrameStats, &st)
		if len(st.Shards) != 2 {
			t.Fatalf("poll %d: %d shard rows, want 2", poll, len(st.Shards))
		}
		for _, row := range st.Shards {
			if row.State != StateHealthy {
				t.Errorf("poll %d: shard %s is %s", poll, row.Addr, row.State)
			}
		}
		if st.Window != 4 {
			t.Errorf("poll %d: aggregated window %d, want the shards' 4", poll, st.Window)
		}
	}
	// A non-poll frame mid-loop is refused.
	if err := conn.WriteFrame(transport.FrameEnd, nil); err != nil {
		t.Fatal(err)
	}
	expectRefusal(t, conn, "decode")
}

// TestRouterReapReleasesQuota: an abandoned session holds its tenant slot
// only until the resume window reaps it.
func TestRouterReapReleasesQuota(t *testing.T) {
	r, spec, _ := stubFleet(t, 1, Config{
		ResumeWindow: 50 * time.Millisecond,
		Quotas:       map[string]Quota{DefaultTenant: {MaxSessions: 1}},
	})
	conn, _ := openRaw(t, spec, stubHello("ci", 19))
	conn.Close() // abandon: parked, still holding ci's only slot

	waitFor(t, 5*time.Second, "abandoned session to be reaped", func() bool {
		return r.Sessions() == 0
	})
	_, w := openRaw(t, spec, stubHello("ci", 21))
	if w.Session == 0 {
		t.Fatal("slot not released by the reap")
	}
}

// TestReapSparesJustPublishedSession: openSession publishes the record before
// runProxy attaches to it, and a poll tick (or another connection's reap) can
// land in between. The record must then count as parked since publication —
// not since the zero time, which reaped the live session from under its
// client.
func TestReapSparesJustPublishedSession(t *testing.T) {
	r, err := NewRouter(Config{Shards: []string{"unix:///nonexistent/shard.sock"}, ResumeWindow: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	hello := stubHello("ci", 23)
	r.tenants[hello.Tenant]++ // openSession's admission reservation
	s := r.publishSession(hello, placementKey(hello), r.order[0], 4)
	if s == nil {
		t.Fatal("publishSession refused on a router that is not draining")
	}
	r.reapSessions(time.Now())
	if r.Sessions() != 1 {
		t.Fatal("a session published but not yet attached was reaped as expired")
	}
	r.reapSessions(time.Now().Add(2 * time.Minute))
	if r.Sessions() != 0 {
		t.Fatal("a never-attached session outlived the resume window")
	}
}
