package fleet

import (
	"time"

	"repro/internal/transport"
)

// Shard states. A shard leaves placement two ways: the router marks it down
// when dials or mid-session I/O fail (the health poll restores it when it
// answers again), and an admin drains it (only an explicit undrain restores
// it — a draining shard that answers polls stays out of placement).
const (
	StateHealthy  = "healthy"
	StateDraining = "draining"
	StateDown     = "down"
)

// shard is the router's view of one backend difftestd. All fields are
// guarded by Router.mu; the health poller and the placement walk both go
// through it.
type shard struct {
	addr  string
	state string

	// stats is the last FrameStats reply; zero until the first poll lands.
	stats    transport.StatsInfo
	lastPoll time.Time

	// sessions counts live sessions the router has placed here (its own
	// view, independent of the shard's Active — the shard also serves any
	// direct clients).
	sessions int
	served   uint64
	fails    uint64
}

// candidates returns the placement ranking for key over shards that are
// accepting sessions: healthy, and — when the last poll reported a capacity
// — not already at it. The full ranked walk is returned so a shard that
// refuses at dial time ("overloaded", dead since the poll) falls through to
// the next-best pick.
func (r *Router) candidates(key string) []string {
	r.mu.Lock()
	avail := make([]string, 0, len(r.order))
	for _, addr := range r.order {
		sh := r.shards[addr]
		if sh.state != StateHealthy {
			continue
		}
		if cap := sh.stats.Capacity; cap > 0 && sh.sessions >= cap {
			continue
		}
		avail = append(avail, addr)
	}
	r.mu.Unlock()
	return rankShards(key, avail)
}

// markDown withdraws a shard from placement after a dial or I/O failure.
// Draining shards keep their admin state; the poller restores a down shard
// to healthy when it answers again.
func (r *Router) markDown(addr string, why error) {
	r.mu.Lock()
	sh, ok := r.shards[addr]
	if ok {
		sh.fails++
		if sh.state == StateHealthy {
			sh.state = StateDown
			r.logf("shard %s: down (%v)", addr, why)
		}
	}
	r.mu.Unlock()
}

// pollLoop polls every shard each StatsInterval tick until stop closes. One
// in-flight poll per shard at a time: a shard timing out its dial must not
// pile up pollers behind it.
func (r *Router) pollLoop() {
	t := time.NewTicker(r.cfg.StatsInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case now := <-t.C:
			r.reapSessions(now)
			r.mu.Lock()
			for _, addr := range r.order {
				sh := r.shards[addr]
				if r.polling[addr] {
					continue
				}
				r.polling[addr] = true
				draining := sh.state == StateDraining
				r.pollWG.Add(1)
				go func(addr string, draining bool) {
					defer r.pollWG.Done()
					r.pollShard(addr, draining)
				}(addr, draining)
			}
			r.mu.Unlock()
		}
	}
}

// pollShard runs one FrameStats round trip against a shard and records the
// outcome: counters and healthy on success, down on any failure. A draining
// shard's stats are refreshed but its admin state is preserved.
func (r *Router) pollShard(addr string, draining bool) {
	defer func() {
		r.mu.Lock()
		delete(r.polling, addr)
		r.mu.Unlock()
	}()
	st, err := r.statsRoundTrip(addr)
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	sh, ok := r.shards[addr]
	if !ok {
		return
	}
	if err != nil {
		sh.fails++
		if sh.state == StateHealthy {
			sh.state = StateDown
			r.logf("shard %s: down (poll: %v)", addr, err)
		}
		return
	}
	sh.stats = st
	sh.lastPoll = now
	if sh.state == StateDown && !draining {
		sh.state = StateHealthy
		r.logf("shard %s: healthy again", addr)
	}
}

// statsRoundTrip dials a shard, sends one empty FrameStats poll, and decodes
// the StatsInfo reply; a refusal is an error like any other.
func (r *Router) statsRoundTrip(addr string) (transport.StatsInfo, error) {
	var st transport.StatsInfo
	conn, err := r.dialShard(addr)
	if err != nil {
		return st, err
	}
	defer conn.Close()
	conn.SetWriteTimeout(r.cfg.WriteTimeout)
	conn.SetReadTimeout(r.cfg.DialTimeout)
	ei, err := transport.Call(conn, transport.FrameStats, nil, transport.FrameStats, &st)
	if ei != nil {
		return st, ei
	}
	return st, err
}
