package fleet

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/transport"
)

// placementKey derives the rendezvous key from a session's handshake: the
// fields that identify the run. Deterministic across router replicas — the
// same Hello always ranks the shards the same way.
func placementKey(h transport.Hello) string {
	return fmt.Sprintf("%s|%s|%s|%s|%s|%d|%d",
		h.Tenant, h.DUT, h.Platform, h.Config, h.Workload, h.TargetInstrs, h.Seed)
}

// rsession is the router's record of one client session: identity and the
// original handshake (replayed to open a backend anywhere). It holds no
// frame bytes — the client's replay window is the session's only
// retransmission buffer. The record outlives any single client or shard
// connection: it is parked between connections and reaped after the resume
// window.
type rsession struct {
	id     uint64
	token  uint64
	tenant string
	key    string
	hello  transport.Hello
	window int // tokens granted to the client (tenant fair share)

	// tenantHeld and placedAddr are guarded by Router.mu (admission and
	// shard bookkeeping live router-side).
	tenantHeld bool
	placedAddr string

	mu sync.Mutex
	// frames counts the data frames forwarded to the current backend; a
	// rebuild resets it, and the client's retransmission counts it back up.
	frames  uint64
	verdict *transport.Verdict
	final   *transport.Verdict
	// shardAddr is the backend currently (or last) serving this session.
	shardAddr string
	attached  *proxy
	parkedAt  time.Time
	resumes   int
}

// setVerdict records the first mismatch verdict (rebuilt checkers
// re-diagnose the same one; only the first counts).
func (s *rsession) setVerdict(v *transport.Verdict, r *Router) {
	s.mu.Lock()
	fresh := s.verdict == nil
	if fresh {
		s.verdict = v
	}
	s.mu.Unlock()
	if fresh {
		r.mismatches.Add(1)
	}
}

// setFinal records the Done payload.
func (s *rsession) setFinal(v *transport.Verdict, r *Router) {
	s.mu.Lock()
	if s.final == nil {
		s.final = v
		if v.Mismatch != nil && s.verdict == nil {
			r.mismatches.Add(1)
		}
	}
	s.mu.Unlock()
}

// backend is one live router→shard session: the framed connection and the
// shard's grant.
type backend struct {
	conn    transport.FrameTransport
	addr    string
	welcome transport.Welcome
}

// openSession handles a client Hello: admission, placement, backend open,
// rewritten Welcome, then the pump loop.
func (r *Router) openSession(conn transport.FrameTransport, h transport.FrameHeader, payload []byte) {
	var hello transport.Hello
	err := transport.DecodeControl(h.Type, payload, &hello)
	conn.ReleasePayload(payload)
	if err != nil {
		transport.Refuse(conn, r.logf, "handshake", err.Error())
		return
	}
	if hello.Proto != transport.ProtoVersion {
		transport.Refuse(conn, r.logf, "handshake", fmt.Sprintf(
			"protocol version %d (router speaks %d)", hello.Proto, transport.ProtoVersion))
		return
	}
	r.reapSessions(time.Now())

	// Admission: reserve the tenant's quota slot before dialing out, so two
	// racing Hellos cannot both squeeze under the cap.
	tenant := hello.Tenant
	q := r.quotaFor(tenant)
	r.mu.Lock()
	if q.MaxSessions > 0 && r.tenants[tenant] >= q.MaxSessions {
		r.mu.Unlock()
		r.refused.Add(1)
		transport.Refuse(conn, r.logf, "quota", fmt.Sprintf(
			"tenant %q is at its session quota (%d)", tenant, q.MaxSessions))
		return
	}
	r.tenants[tenant]++
	r.mu.Unlock()
	releaseSlot := func() {
		r.mu.Lock()
		if n := r.tenants[tenant]; n > 1 {
			r.tenants[tenant] = n - 1
		} else {
			delete(r.tenants, tenant)
		}
		r.mu.Unlock()
	}

	key := placementKey(hello)
	b, ei, addr := r.connectBackend(hello, key)
	if b == nil {
		releaseSlot()
		r.refused.Add(1)
		if ei != nil {
			// The shard refused this client on its merits (digest drift, bad
			// DUT name); relay the diagnosis untouched.
			conn.WriteFrame(transport.FrameErrorInfo, transport.EncodeControl(ei))
			return
		}
		transport.Refuse(conn, r.logf, "overloaded", "no shard available")
		return
	}

	s := r.publishSession(hello, key, addr, scaleWindow(b.welcome.Tokens, q.Share))
	if s == nil {
		releaseSlot()
		b.conn.Close()
		return
	}
	id := s.id

	w := transport.Welcome{
		Proto:       transport.ProtoVersion,
		WireDigest:  b.welcome.WireDigest,
		Session:     id,
		Tokens:      s.window,
		ResumeToken: s.token,
	}
	if err := conn.WriteFrame(transport.FrameWelcome, transport.EncodeControl(&w)); err != nil {
		// The client never saw its session id, so it can never resume: drop.
		b.conn.Close()
		r.dropSession(s)
		return
	}
	r.logf("session %d: %s/%s/%s tenant=%q → %s (window %d of shard %d)",
		id, hello.DUT, hello.Config, hello.Workload, tenant, addr, s.window, b.welcome.Tokens)
	r.runProxy(conn, s, b, 0)
}

// publishSession creates the record of an admitted session (its tenant slot
// already reserved) and makes it visible to resumes, polls and reaps; nil
// when the router began draining meanwhile. The record is born parked as of
// now: it has no attachment until runProxy installs one, and a reap landing
// in that gap must measure the resume window from publication — measured
// from the zero time, the live session would be reaped from under its client.
func (r *Router) publishSession(hello transport.Hello, key, addr string, window int) *rsession {
	id := r.nextID.Add(1)
	s := &rsession{
		id:        id,
		token:     (id*0x9e3779b97f4a7c15 ^ r.tokenSalt) | 1,
		tenant:    hello.Tenant,
		key:       key,
		hello:     hello,
		window:    window,
		shardAddr: addr,
		parkedAt:  time.Now(),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.draining {
		return nil
	}
	s.tenantHeld = true // the caller's reservation becomes the session's hold
	r.sessions[id] = s
	r.placeLocked(s, addr)
	return s
}

// resumeSession handles a client Resume: find the record, kick any stale
// proxy, rebuild the backend on a fresh shard session (same shard or —
// migration — a different one), answer ResumeOK, and pump the client's
// retransmitted window into it.
func (r *Router) resumeSession(conn transport.FrameTransport, h transport.FrameHeader, payload []byte) {
	var req transport.Resume
	err := transport.DecodeControl(h.Type, payload, &req)
	conn.ReleasePayload(payload)
	if err != nil {
		transport.Refuse(conn, r.logf, "resume", err.Error())
		return
	}
	if req.Proto != transport.ProtoVersion {
		transport.Refuse(conn, r.logf, "resume", fmt.Sprintf(
			"protocol version %d (router speaks %d)", req.Proto, transport.ProtoVersion))
		return
	}
	r.reapSessions(time.Now())
	r.mu.Lock()
	s := r.sessions[req.Session]
	if s != nil && s.token != req.Token {
		s = nil
	}
	r.mu.Unlock()
	if s == nil {
		transport.Refuse(conn, r.logf, "resume", fmt.Sprintf("unknown or expired session %d", req.Session))
		return
	}

	// A silent-stall redial can race the proxy still serving the old
	// connection: the new connection wins, the old proxy is kicked.
	s.mu.Lock()
	old := s.attached
	s.mu.Unlock()
	if old != nil {
		old.finishWith(outcomeKicked, nil)
		select {
		case <-old.done:
		case <-time.After(r.cfg.DialTimeout):
			transport.Refuse(conn, r.logf, "resume", "session busy")
			return
		}
		r.mu.Lock()
		_, alive := r.sessions[s.id]
		r.mu.Unlock()
		if !alive {
			transport.Refuse(conn, r.logf, "resume", "session ended")
			return
		}
	}

	s.mu.Lock()
	frames := s.frames
	final := s.final
	oldAddr := s.shardAddr
	s.resumes++
	resumes := s.resumes
	s.mu.Unlock()
	if req.Sent < frames {
		transport.Refuse(conn, r.logf, "resume", fmt.Sprintf(
			"client sent %d data frames but session %d forwarded %d", req.Sent, s.id, frames))
		return
	}
	r.resumed.Add(1)

	if final != nil {
		// The session already completed; replay the Done payload and park
		// again so even a lost ResumeOK can be retried until reap.
		ok := transport.ResumeOK{Have: frames, Tokens: s.window, Final: final}
		conn.WriteFrame(transport.FrameResumeOK, transport.EncodeControl(&ok))
		r.park(s, "completed, final verdict replayed")
		return
	}

	// Rebuild the backend. Same machinery either way: a fresh shard session
	// that the client's retransmission refills from frame one. The HRW walk
	// decides where it lands — the same shard if only the client link
	// blipped, the next-ranked one if the shard is down or draining. That
	// second case is the live migration.
	b, ei, addr := r.connectBackend(s.hello, s.key)
	if b == nil {
		r.refused.Add(1)
		if ei != nil {
			conn.WriteFrame(transport.FrameErrorInfo, transport.EncodeControl(ei))
		} else {
			transport.Refuse(conn, r.logf, "resume", "no shard available to rebuild session")
		}
		r.park(s, "rebuild failed")
		return
	}
	migrated := addr != oldAddr
	if migrated {
		r.migrations.Add(1)
	}
	s.mu.Lock()
	s.shardAddr = addr
	s.frames = 0
	verdict := s.verdict // diagnosed before the rebuild; the new shard re-diagnoses it
	s.mu.Unlock()
	r.mu.Lock()
	r.placeLocked(s, addr)
	r.mu.Unlock()

	// Have stays 0: the fresh shard holds nothing, and the router kept no
	// acked prefix (it forwards every credit with Ack zeroed), so the client
	// retransmits its whole stream. The client writes that tail before it
	// reads again and expects credits for only its last window of frames;
	// the shard credits for the rest are swallowed (see pumpBackend).
	ok := transport.ResumeOK{Tokens: s.window, Verdict: verdict, Migrated: migrated}
	if err := conn.WriteFrame(transport.FrameResumeOK, transport.EncodeControl(&ok)); err != nil {
		b.conn.Close()
		r.park(s, "resume-ok write failed")
		return
	}
	var swallow uint64
	if w := uint64(s.window); req.Sent > w {
		swallow = req.Sent - w
	}
	r.logf("session %d: resumed (#%d) onto %s (migrated=%v, retransmitting %d, shard window %d)",
		s.id, resumes, addr, migrated, req.Sent, b.welcome.Tokens)
	r.runProxy(conn, s, b, swallow)
}

// connectBackend walks the placement ranking and opens a shard session for
// hello. Returns the backend and its shard, or the shard's client-level
// refusal (to relay), or (nil, nil, "") when no shard would take the
// session. Dial and I/O failures mark the shard down and fall through to
// the next candidate; "overloaded" refusals fall through without the down
// mark.
func (r *Router) connectBackend(hello transport.Hello, key string) (*backend, *transport.ErrorInfo, string) {
	for _, addr := range r.candidates(key) {
		b, ei, err := r.openBackend(hello, addr)
		if err != nil {
			r.markDown(addr, err)
			continue
		}
		if ei != nil {
			if ei.Code == "overloaded" {
				r.logf("shard %s: refused placement: %s", addr, ei.Msg)
				continue
			}
			return nil, ei, ""
		}
		return b, nil, addr
	}
	return nil, nil, ""
}

// openBackend dials one shard and performs the Hello handshake with the
// client's original handshake frame.
func (r *Router) openBackend(hello transport.Hello, addr string) (*backend, *transport.ErrorInfo, error) {
	conn, err := r.dialShard(addr)
	if err != nil {
		return nil, nil, err
	}
	conn.SetWriteTimeout(r.cfg.WriteTimeout)
	conn.SetReadTimeout(r.cfg.DialTimeout)
	w, ei, err := transport.Handshake(conn, hello)
	if ei != nil || err != nil {
		conn.Close()
		return nil, ei, err
	}
	return &backend{conn: conn, addr: addr, welcome: w}, nil, nil
}

// Proxy outcomes, decided by whichever pump (or external event) ends the
// attachment first.
const (
	outcomeNone        = iota
	outcomeClientLost  // client conn broke: park, await resume
	outcomeBackendLost // shard conn broke: redirect client, park, mark down
	outcomeRedirected  // drain: redirect client, park
	outcomeFinal       // Done forwarded: park for final-verdict replay
	outcomeFatal       // protocol error or shard refusal: drop the session
	outcomeKicked      // a newer resume took the session; touch nothing
)

// proxy is one client-connection ↔ shard-connection attachment of a
// session: two pump goroutines and the shard-window token gate between
// them. Its lifetime is exactly the overlap of the two connections.
type proxy struct {
	r       *Router
	s       *rsession
	client  transport.FrameTransport
	backend transport.FrameTransport
	baddr   string

	// tokens gates client→shard data frames to the shard's granted window:
	// the client's retransmitted tail after a rebuild can be far longer than
	// that window and must not overrun it.
	tokens chan struct{}
	// swallow counts the shard credits still to be withheld from the client
	// after a rebuild (pumpBackend's alone).
	swallow uint64

	quit chan struct{}
	once sync.Once
	done chan struct{}

	// cw serializes writes to the client conn: the backend pump forwards
	// credits/verdicts while drain or backend death may inject a Redirect.
	cw sync.Mutex

	mu      sync.Mutex
	outcome int
	cause   error
}

// finishWith records the first outcome and tears both connections down,
// unblocking both pumps. Idempotent; later callers lose.
func (p *proxy) finishWith(outcome int, cause error) {
	p.mu.Lock()
	if p.outcome == outcomeNone {
		p.outcome = outcome
		p.cause = cause
	}
	p.mu.Unlock()
	p.once.Do(func() {
		close(p.quit)
		p.client.Close()
		p.backend.Close()
	})
}

// clientWrite sends one frame to the client under the write lock.
func (p *proxy) clientWrite(typ uint8, payload []byte) error {
	p.cw.Lock()
	defer p.cw.Unlock()
	return p.client.WriteFrame(typ, payload)
}

// redirect tells the client to redial (it will resume, and placement will
// land it on a healthy shard), then ends the attachment.
func (p *proxy) redirect(reason string) {
	p.clientWrite(transport.FrameRedirect, transport.EncodeControl(&transport.Redirect{Reason: reason}))
	p.finishWith(outcomeRedirected, nil)
}

// backendLost handles a dead shard connection mid-session: the shard is
// withdrawn from placement and the client is told to redial — the forced
// resume that triggers the migration.
func (p *proxy) backendLost(err error) {
	p.r.markDown(p.baddr, err)
	p.clientWrite(transport.FrameRedirect, transport.EncodeControl(&transport.Redirect{
		Reason: fmt.Sprintf("shard %s lost: %v", p.baddr, err)}))
	p.finishWith(outcomeBackendLost, err)
}

// runProxy attaches a client connection and an open backend to the session
// and pumps frames both ways until either side ends the attachment, the
// first swallow shard credits withheld from the client.
func (r *Router) runProxy(conn transport.FrameTransport, s *rsession, b *backend, swallow uint64) {
	p := &proxy{
		r:       r,
		s:       s,
		client:  conn,
		backend: b.conn,
		baddr:   b.addr,
		tokens:  make(chan struct{}, b.welcome.Tokens),
		swallow: swallow,
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for i := 0; i < b.welcome.Tokens; i++ {
		p.tokens <- struct{}{}
	}
	s.mu.Lock()
	s.attached = p
	s.mu.Unlock()
	r.attached.Add(1)
	defer r.attached.Add(-1)
	defer close(p.done)

	// Both handshake deadlines are done; pumps block until traffic or quit.
	conn.SetReadTimeout(0)
	b.conn.SetReadTimeout(0)

	backendDone := make(chan struct{})
	go func() {
		defer close(backendDone)
		p.pumpBackend()
	}()
	p.pumpClient()
	<-backendDone
	p.finish()
}

// pumpClient forwards client frames to the shard: data frames are gated by
// the shard window and counted; End passes through.
func (p *proxy) pumpClient() {
	for {
		h, payload, err := p.client.ReadFrame()
		if err != nil {
			p.finishWith(outcomeClientLost, err)
			return
		}
		switch h.Type {
		case transport.FramePacket, transport.FrameItems:
			select {
			case <-p.tokens:
			case <-p.quit:
				p.client.ReleasePayload(payload)
				return
			}
			p.s.mu.Lock()
			p.s.frames++
			p.s.mu.Unlock()
			werr := p.backend.WriteFrame(h.Type, payload)
			p.client.ReleasePayload(payload)
			if werr != nil {
				p.backendLost(werr)
				return
			}
		case transport.FrameEnd:
			p.client.ReleasePayload(payload)
			if werr := p.backend.WriteFrame(transport.FrameEnd, nil); werr != nil {
				p.backendLost(werr)
				return
			}
		case transport.FrameHello, transport.FrameWelcome, transport.FrameCredit,
			transport.FrameVerdict, transport.FrameDone, transport.FrameErrorInfo,
			transport.FrameResume, transport.FrameResumeOK, transport.FrameStats,
			transport.FrameDrain, transport.FrameRedirect:
			// Mid-session a client sends only data and End — anything else is
			// a protocol error, same as on a shard.
			fallthrough
		default:
			p.client.ReleasePayload(payload)
			err := fmt.Errorf("fleet: client stream: unexpected frame type %d", h.Type)
			p.clientWrite(transport.FrameErrorInfo, transport.EncodeControl(&transport.ErrorInfo{
				Code: "decode", Msg: err.Error()}))
			p.finishWith(outcomeFatal, err)
			return
		}
	}
}

// pumpBackend forwards shard frames to the client: credits refill the token
// gate and reach the client with Ack zeroed (a rebuild starts the shard from
// nothing, so no shard ack is durable; the client keeps its whole stream),
// verdicts and Done are recorded and relayed.
func (p *proxy) pumpBackend() {
	for {
		h, payload, err := p.backend.ReadFrame()
		if err != nil {
			select {
			case <-p.quit: // attachment already ended; not a shard failure
			default:
				p.backendLost(err)
			}
			return
		}
		switch h.Type {
		case transport.FrameCredit:
			var cr transport.Credit
			derr := transport.DecodeControl(h.Type, payload, &cr)
			p.backend.ReleasePayload(payload)
			if derr != nil {
				p.backendLost(derr)
				return
			}
			for i := 0; i < cr.Tokens; i++ {
				select {
				case p.tokens <- struct{}{}:
				default: // over-credit; the shard window cap is authoritative
				}
			}
			if p.swallow > 0 {
				// A retransmitted frame the client sent beyond its window: it
				// holds no token for this credit and is not reading yet.
				p.swallow--
				continue
			}
			cr.Ack = 0
			if werr := p.clientWrite(transport.FrameCredit, transport.EncodeControl(&cr)); werr != nil {
				p.finishWith(outcomeClientLost, werr)
				return
			}
		case transport.FrameVerdict:
			var v transport.Verdict
			derr := transport.DecodeControl(h.Type, payload, &v)
			p.backend.ReleasePayload(payload)
			if derr != nil {
				p.backendLost(derr)
				return
			}
			p.s.setVerdict(&v, p.r)
			if werr := p.clientWrite(transport.FrameVerdict, transport.EncodeControl(&v)); werr != nil {
				p.finishWith(outcomeClientLost, werr)
				return
			}
		case transport.FrameDone:
			var v transport.Verdict
			derr := transport.DecodeControl(h.Type, payload, &v)
			p.backend.ReleasePayload(payload)
			if derr != nil {
				p.backendLost(derr)
				return
			}
			p.s.setFinal(&v, p.r)
			// Settle the books before the client can see Done: its next Hello
			// (or a stats query) may be on the wire the moment it does, and
			// must find the tenant's slot free and the session counted.
			p.r.sessionDone(p.s)
			p.clientWrite(transport.FrameDone, transport.EncodeControl(&v))
			p.finishWith(outcomeFinal, nil)
			return
		case transport.FrameErrorInfo:
			var ei transport.ErrorInfo
			derr := transport.DecodeControl(h.Type, payload, &ei)
			p.backend.ReleasePayload(payload)
			if derr != nil {
				p.backendLost(derr)
				return
			}
			if ei.Code == "idle" {
				// The shard gave up the connection, not the session: it idles
				// a quiet link out (and says so on its way into a forced
				// shutdown). The stream is intact in the client's window, so
				// this is a redirect — the client's resume rebuilds elsewhere
				// or, if the shard was merely bored, right back here.
				p.redirect("shard idled the connection: " + ei.Msg)
				return
			}
			// Everything else is the client's own protocol error (decode
			// failures survive the checksum, so they are client bugs): relay
			// the diagnosis and drop the session.
			p.clientWrite(transport.FrameErrorInfo, transport.EncodeControl(&ei))
			p.finishWith(outcomeFatal, &ei)
			return
		case transport.FrameHello, transport.FrameWelcome, transport.FramePacket,
			transport.FrameItems, transport.FrameEnd, transport.FrameResume,
			transport.FrameResumeOK, transport.FrameStats, transport.FrameDrain,
			transport.FrameRedirect:
			// A shard mid-session speaks credits, verdicts, Done, and errors;
			// the rest is corruption-grade.
			fallthrough
		default:
			p.backend.ReleasePayload(payload)
			p.finishWith(outcomeFatal, fmt.Errorf("fleet: shard stream: unexpected frame type %d", h.Type))
			return
		}
	}
}

// finish settles the session record once both pumps have exited.
func (p *proxy) finish() {
	r, s := p.r, p.s
	p.mu.Lock()
	outcome, cause := p.outcome, p.cause
	p.mu.Unlock()

	s.mu.Lock()
	if s.attached == p {
		s.attached = nil
	}
	addr := s.shardAddr
	s.mu.Unlock()

	r.mu.Lock()
	draining := r.draining
	r.mu.Unlock()
	if draining {
		r.dropSession(s)
		return
	}

	switch outcome {
	case outcomeFinal:
		r.park(s, "completed")
	case outcomeClientLost:
		r.park(s, fmt.Sprintf("client connection lost: %v", cause))
	case outcomeBackendLost:
		r.park(s, fmt.Sprintf("shard %s lost, awaiting forced resume", addr))
	case outcomeRedirected:
		r.park(s, "redirected for drain")
	case outcomeKicked:
		// The resume that kicked this proxy owns the record now.
	case outcomeFatal:
		r.logf("session %d: fatal: %v", s.id, cause)
		r.dropSession(s)
	default:
		r.park(s, "attachment ended")
	}
}

// park shelves a session between connections; a Resume picks it up until
// the resume window reaps it.
func (r *Router) park(s *rsession, why string) {
	s.mu.Lock()
	s.parkedAt = time.Now()
	s.mu.Unlock()
	r.parkCount.Add(1)
	r.logf("session %d: parked (%s)", s.id, why)
}

// placeLocked moves a session's shard-occupancy count to addr. Callers
// hold r.mu.
func (r *Router) placeLocked(s *rsession, addr string) {
	if s.placedAddr == addr {
		return
	}
	if sh, ok := r.shards[s.placedAddr]; ok && sh.sessions > 0 {
		sh.sessions--
	}
	s.placedAddr = addr
	if sh, ok := r.shards[addr]; ok {
		sh.sessions++
	}
}

// unplaceLocked drops a session's shard-occupancy count. Callers hold r.mu.
func (r *Router) unplaceLocked(s *rsession) {
	if sh, ok := r.shards[s.placedAddr]; ok && sh.sessions > 0 {
		sh.sessions--
	}
	s.placedAddr = ""
}
