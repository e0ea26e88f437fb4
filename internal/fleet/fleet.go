// Package fleet turns N independent difftestd shards into one verification
// service: a stateless router speaks the DTH1 framed protocol on both sides,
// places each inbound session on a shard by rendezvous hashing, enforces
// per-tenant admission quotas and fair-share token windows, and migrates
// live sessions off dead or draining shards without changing their verdicts.
//
// The router keeps no durable state, no placement table and no frame bytes:
// where a session belongs is a pure function of its handshake key and the
// live shard set, so any router replica computes the same answer. The one
// retransmission buffer is the client's own replay window. A checker is
// stateful, so a session moved to a new shard must replay its whole stream
// into a fresh checker there; the router therefore forwards shard credits
// with their acks zeroed, the client keeps every frame it sent, and a
// rebuild answers the resume with Have = 0. Migration is literally a forced
// resume: the router redirects (or the client's stall detection fires), the
// client redials with its normal Resume frame and retransmits, and the router
// feeds that retransmission to the fresh backend under the shard's window —
// same machinery, different shard, byte-identical stream, byte-identical
// verdict.
//
// Both faces run on transport's own protocol code, not copies of it: clients
// arrive through the transport.FrontDoor accept loop difftestd uses, stats
// polls are answered by transport.ServeStats, and shard sessions and health
// polls go out through transport.Handshake and transport.Call.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// Quota is one tenant's admission and fair-share policy.
type Quota struct {
	// MaxSessions caps the tenant's concurrent live sessions fleet-wide
	// (0 = unlimited). A session stops counting when its final verdict is
	// delivered, not when its record is reaped.
	MaxSessions int
	// Share scales the token window granted to the tenant's clients: the
	// shard grants W tokens, the client sees max(1, round(W*Share)). Zero
	// or ≥1 passes the shard's grant through unchanged — shares are for
	// throttling, never for out-crediting the shard.
	Share float64
}

// DefaultTenant keys the Quotas entry applied to tenants with no entry of
// their own (including the empty tenant).
const DefaultTenant = "*"

// Config tunes a Router.
type Config struct {
	// Shards lists the backend difftestd endpoints (transport.ParseSpec
	// forms; ParseShards builds the list from a comma-separated flag).
	// Required, at least one.
	Shards []string
	// Quotas maps tenant name → policy; the DefaultTenant entry covers
	// everyone else. Nil means no quotas and full shares.
	Quotas map[string]Quota

	// StatsInterval is the shard health-poll cadence (0 = 1s).
	StatsInterval time.Duration
	// DialTimeout bounds each backend dial + handshake read (0 = 5s).
	DialTimeout time.Duration
	// WriteTimeout bounds every outbound frame flush (0 = transport default).
	WriteTimeout time.Duration
	// HandshakeTimeout bounds the wait for a connection's first frame
	// (0 = transport default).
	HandshakeTimeout time.Duration
	// ResumeWindow is how long a broken session's record is kept for the
	// client to resume (0 = transport default); resume is also the
	// migration mechanism.
	ResumeWindow time.Duration

	// DialShard, when set, replaces the backend network dial — the hook
	// fault-injection tests use to route router→shard connections through
	// faultnet. The router wraps the net.Conn in the socket framing.
	DialShard func(spec string) (net.Conn, error)
	// Logf, when set, receives one line per lifecycle step.
	Logf func(format string, args ...any)
}

// Router is the fleet front end: a session-aware frame proxy.
type Router struct {
	cfg Config

	door transport.FrontDoor

	mu       sync.Mutex
	shards   map[string]*shard
	order    []string // declared shard order, for stable listings
	sessions map[uint64]*rsession
	tenants  map[string]int // live (not yet final) sessions per tenant
	polling  map[string]bool
	draining bool

	pollWG   sync.WaitGroup
	stop     chan struct{}
	pollOnce sync.Once

	nextID     atomic.Uint64
	tokenSalt  uint64
	attached   atomic.Int64 // sessions with a live client connection
	served     atomic.Uint64
	mismatches atomic.Uint64
	parkCount  atomic.Uint64
	resumed    atomic.Uint64
	migrations atomic.Uint64
	refused    atomic.Uint64 // admissions refused (quota or no shard)
}

// NewRouter builds a router over cfg.Shards.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("fleet: no shards configured")
	}
	if cfg.StatsInterval <= 0 {
		cfg.StatsInterval = time.Second
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = transport.DefaultWriteTimeout
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = transport.DefaultHandshakeTimeout
	}
	if cfg.ResumeWindow <= 0 {
		cfg.ResumeWindow = transport.DefaultResumeWindow
	}
	r := &Router{
		cfg:       cfg,
		shards:    make(map[string]*shard, len(cfg.Shards)),
		sessions:  make(map[uint64]*rsession),
		tenants:   make(map[string]int),
		polling:   make(map[string]bool),
		stop:      make(chan struct{}),
		tokenSalt: uint64(time.Now().UnixNano()),
	}
	for _, raw := range cfg.Shards {
		sp, err := transport.ParseSpec(raw)
		if err != nil {
			return nil, fmt.Errorf("fleet: shard %q: %w", raw, err)
		}
		addr := sp.String()
		if _, dup := r.shards[addr]; dup {
			return nil, fmt.Errorf("fleet: duplicate shard %q", addr)
		}
		r.shards[addr] = &shard{addr: addr, state: StateHealthy}
		r.order = append(r.order, addr)
	}
	return r, nil
}

func (r *Router) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// dialShard opens a framed transport to one backend, through the configured
// raw-dial hook or the scheme registry.
func (r *Router) dialShard(addr string) (transport.FrameTransport, error) {
	if r.cfg.DialShard != nil {
		nc, err := r.cfg.DialShard(addr)
		if err != nil {
			return nil, err
		}
		return transport.NewConn(nc), nil
	}
	return transport.DialFrame(addr, r.cfg.DialTimeout)
}

// quotaFor resolves a tenant's policy: its own entry, else the default.
func (r *Router) quotaFor(tenant string) Quota {
	if q, ok := r.cfg.Quotas[tenant]; ok {
		return q
	}
	return r.cfg.Quotas[DefaultTenant]
}

// scaleWindow applies a tenant's fair share to a shard's token grant.
func scaleWindow(shardTokens int, share float64) int {
	if share <= 0 || share >= 1 {
		return shardTokens
	}
	w := int(float64(shardTokens)*share + 0.5)
	if w < 1 {
		w = 1
	}
	if w > shardTokens {
		w = shardTokens
	}
	return w
}

// Serve accepts client connections on l until the listener closes
// (Shutdown). The health poller starts with the first Serve call.
func (r *Router) Serve(l transport.FrameListener) error {
	r.pollOnce.Do(func() {
		r.pollWG.Add(1)
		go func() {
			defer r.pollWG.Done()
			r.pollLoop()
		}()
	})
	return r.door.Serve(l, r.handleConn)
}

// handleConn dispatches one inbound connection by its first frame.
func (r *Router) handleConn(conn transport.FrameTransport) {
	conn.SetWriteTimeout(r.cfg.WriteTimeout)
	conn.SetReadTimeout(r.cfg.HandshakeTimeout)

	h, payload, err := conn.ReadFrame()
	if err != nil {
		r.logf("conn from %s: first frame: %v", conn.RemoteAddr(), err)
		return
	}
	switch h.Type {
	case transport.FrameHello:
		r.openSession(conn, h, payload)
	case transport.FrameResume:
		r.resumeSession(conn, h, payload)
	case transport.FrameStats:
		conn.ReleasePayload(payload)
		transport.ServeStats(conn, r.StatsInfo, r.cfg.HandshakeTimeout)
	case transport.FrameDrain:
		r.serveDrain(conn, h, payload)
	case transport.FrameWelcome, transport.FramePacket, transport.FrameItems,
		transport.FrameEnd, transport.FrameCredit, transport.FrameVerdict,
		transport.FrameDone, transport.FrameErrorInfo, transport.FrameResumeOK,
		transport.FrameRedirect:
		// A router accepts one more opener than a shard (Drain); the rest
		// are refused by name so a new control frame fails lint here.
		fallthrough
	default:
		conn.ReleasePayload(payload)
		transport.Refuse(conn, r.logf, "handshake",
			fmt.Sprintf("expected Hello, Resume, Stats, or Drain, got frame type %d", h.Type))
	}
}

// StatsInfo aggregates the fleet's health: router-level counters plus the
// per-shard view placement works from.
func (r *Router) StatsInfo() transport.StatsInfo {
	st := transport.StatsInfo{
		Active:     int(r.attached.Load()),
		Parked:     r.parkCount.Load(),
		Resumed:    r.resumed.Load(),
		Served:     r.served.Load(),
		Mismatches: r.mismatches.Load(),
		Migrations: r.migrations.Load(),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	unlimited := false
	for _, addr := range r.order {
		sh := r.shards[addr]
		row := transport.ShardStatus{
			Addr:     sh.addr,
			State:    sh.state,
			Active:   sh.stats.Active,
			Parked:   sh.stats.Parked,
			Resumed:  sh.stats.Resumed,
			Served:   sh.stats.Served,
			Capacity: sh.stats.Capacity,
			Sessions: sh.sessions,
		}
		if sh.stats.Window > st.Window {
			st.Window = sh.stats.Window
		}
		if sh.stats.Capacity <= 0 {
			unlimited = true
		} else {
			st.Capacity += sh.stats.Capacity
		}
		st.Shards = append(st.Shards, row)
	}
	if unlimited {
		st.Capacity = 0
	}
	return st
}

// serveDrain handles one admin drain/undrain request.
func (r *Router) serveDrain(conn transport.FrameTransport, h transport.FrameHeader, payload []byte) {
	var req transport.DrainRequest
	err := transport.DecodeControl(h.Type, payload, &req)
	conn.ReleasePayload(payload)
	if err != nil {
		transport.Refuse(conn, r.logf, "decode", err.Error())
		return
	}
	sp, perr := transport.ParseSpec(req.Shard)
	if perr != nil {
		transport.Refuse(conn, r.logf, "decode", perr.Error())
		return
	}
	addr := sp.String()
	var reply transport.DrainReply
	var known bool
	if req.Undrain {
		reply, known = r.UndrainShard(addr)
	} else {
		reply, known = r.DrainShard(addr)
	}
	if !known {
		transport.Refuse(conn, r.logf, "decode", fmt.Sprintf("unknown shard %q", addr))
		return
	}
	conn.WriteFrame(transport.FrameDrain, transport.EncodeControl(&reply))
}

// DrainShard withdraws a shard from placement and redirects its live
// sessions; each resumes through the migration path onto another shard.
func (r *Router) DrainShard(addr string) (transport.DrainReply, bool) {
	r.mu.Lock()
	sh, ok := r.shards[addr]
	if !ok {
		r.mu.Unlock()
		return transport.DrainReply{}, false
	}
	if sh.state != StateDown {
		sh.state = StateDraining
	}
	var kick []*proxy
	for _, s := range r.sessions {
		s.mu.Lock()
		if s.attached != nil && s.shardAddr == addr {
			kick = append(kick, s.attached)
		}
		s.mu.Unlock()
	}
	state := sh.state
	r.mu.Unlock()

	for _, p := range kick {
		p.redirect("shard draining")
	}
	r.logf("shard %s: draining, %d session(s) redirected", addr, len(kick))
	return transport.DrainReply{Shard: addr, State: state, Redirected: len(kick)}, true
}

// UndrainShard returns a drained shard to placement (it re-enters as down
// until the next successful poll proves it answers).
func (r *Router) UndrainShard(addr string) (transport.DrainReply, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sh, ok := r.shards[addr]
	if !ok {
		return transport.DrainReply{}, false
	}
	if sh.state == StateDraining {
		sh.state = StateDown
	}
	return transport.DrainReply{Shard: addr, State: sh.state}, true
}

// Shutdown stops the router: listeners close, every live connection is
// interrupted and closed at once, and every session record is dropped.
// Unlike a shard, a router has no work of its own to let finish — clients
// that lose it resume against another router or degrade — so Shutdown does
// not drain; ctx bounds the wait for the handlers to return.
func (r *Router) Shutdown(ctx context.Context) error {
	r.mu.Lock()
	if r.draining {
		r.mu.Unlock()
		return nil
	}
	r.draining = true
	close(r.stop)
	r.mu.Unlock()

	r.door.Close()
	r.door.Interrupt(true)
	err := r.door.Wait(ctx)
	r.pollWG.Wait()

	r.mu.Lock()
	r.sessions = make(map[uint64]*rsession)
	r.mu.Unlock()
	return err
}

// Sessions reports the router's live session-record count (attached plus
// parked, before reaping).
func (r *Router) Sessions() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// Migrations reports how many resumes the router landed on a different
// shard than the session ran on before.
func (r *Router) Migrations() uint64 { return r.migrations.Load() }

// Refused reports admissions refused at the router (quota or no shard).
func (r *Router) Refused() uint64 { return r.refused.Load() }

// reapSessions drops parked session records past the resume window.
func (r *Router) reapSessions(now time.Time) {
	var expired []*rsession
	r.mu.Lock()
	for id, s := range r.sessions {
		s.mu.Lock()
		gone := s.attached == nil && now.Sub(s.parkedAt) > r.cfg.ResumeWindow
		s.mu.Unlock()
		if gone {
			delete(r.sessions, id)
			r.releaseTenantLocked(s)
			r.unplaceLocked(s)
			expired = append(expired, s)
		}
	}
	r.mu.Unlock()
	for _, s := range expired {
		r.logf("session %d: resume window expired, reaped", s.id)
	}
}

// releaseTenantLocked returns a session's tenant admission slot. Callers
// hold r.mu; idempotent per session.
func (r *Router) releaseTenantLocked(s *rsession) {
	if !s.tenantHeld {
		return
	}
	s.tenantHeld = false
	if n := r.tenants[s.tenant]; n > 1 {
		r.tenants[s.tenant] = n - 1
	} else {
		delete(r.tenants, s.tenant)
	}
}

// dropSession removes a session record entirely (fatal protocol error) and
// releases its tenant slot and shard placement.
func (r *Router) dropSession(s *rsession) {
	r.mu.Lock()
	delete(r.sessions, s.id)
	r.releaseTenantLocked(s)
	r.unplaceLocked(s)
	r.mu.Unlock()
}

// sessionDone marks a session's final verdict delivered: it stops counting
// against its tenant's quota and against its shard, but its record stays
// parked so a client that lost the Done frame can resume and replay it.
func (r *Router) sessionDone(s *rsession) {
	r.served.Add(1)
	r.mu.Lock()
	r.releaseTenantLocked(s)
	if sh, ok := r.shards[s.placedAddr]; ok {
		sh.served++
	}
	r.unplaceLocked(s)
	r.mu.Unlock()
}
