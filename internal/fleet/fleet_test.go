package fleet

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bugs"
	"repro/internal/checker"
	"repro/internal/cosim"
	"repro/internal/dut"
	"repro/internal/event"
	"repro/internal/platform"
	"repro/internal/transport"
	"repro/internal/workload"
)

// The integration gates: real co-simulation sessions (production
// cosim.NewSession shards, the production networked client) routed through
// the fleet, with verdict equivalence against in-process references as the
// pass condition — the same bar the cosim fault matrix sets, plus shard
// death and migration on top.

// fleetParams builds one routed run. The parameter set matches the cosim
// fault matrix (EBINSD, LinuxBoot at 40k instructions) so bug detection
// behaves identically; the seed both varies the stream and spreads the
// placement keys across shards.
func fleetParams(t testing.TB, bugID, addr string, seed int64) cosim.Params {
	t.Helper()
	opt, err := cosim.ParseConfig("EBINSD")
	if err != nil {
		t.Fatal(err)
	}
	opt.Executed = true
	wl := workload.LinuxBoot()
	wl.TargetInstrs = 40_000
	p := cosim.Params{
		DUT: dut.XiangShanDefault(), Platform: platform.Palladium(), Opt: opt,
		Workload: wl, Seed: seed,
	}
	if bugID != "" {
		b, ok := bugs.ByID(bugID)
		if !ok {
			t.Fatalf("bug %s not in the library", bugID)
		}
		p.Hooks = b.Hooks(0)
	}
	p.RemoteAddr = addr
	return p
}

// routedCfg is the resume-enabled client config every fleet run uses: the
// same machinery the fault matrix exercises, pointed at a router.
func routedCfg() transport.ClientConfig {
	return transport.ClientConfig{
		MaxRetries:   6,
		BackoffBase:  5 * time.Millisecond,
		BackoffMax:   50 * time.Millisecond,
		StallTimeout: 2 * time.Second,
		JitterSeed:   17,
	}
}

// fleetVerdictEq asserts the routed verdict is byte-identical to the
// in-process reference (detection, trap code, and the checker's full
// mismatch identity and diagnosis).
func fleetVerdictEq(t *testing.T, ref, got *cosim.Result, context string) {
	t.Helper()
	if (ref.Mismatch == nil) != (got.Mismatch == nil) {
		t.Fatalf("%s: detection disagrees: in-process=%v routed=%v",
			context, ref.Mismatch, got.Mismatch)
	}
	if ref.Mismatch == nil {
		if !got.Finished || got.TrapCode != ref.TrapCode {
			t.Fatalf("%s: clean verdict drifted: finished=%v trap=%d, want trap=%d",
				context, got.Finished, got.TrapCode, ref.TrapCode)
		}
		return
	}
	rm, gm := ref.Mismatch, got.Mismatch
	if rm.Core != gm.Core || rm.Seq != gm.Seq || rm.PC != gm.PC || rm.Kind != gm.Kind {
		t.Fatalf("%s: mismatch identity differs:\n in-process: %v\n routed    : %v",
			context, rm, gm)
	}
	if rm.Detail != gm.Detail {
		t.Fatalf("%s: diagnosis differs:\n in-process: %s\n routed    : %s",
			context, rm.Detail, gm.Detail)
	}
}

// cosimFleet starts n production shards and a router over them. A non-nil
// gate holds every shard session at its first packet (see shardGate).
func cosimFleet(t *testing.T, n int, cfg Config, gate *shardGate) (*Router, string, func(), map[string]*transport.Server, []*transport.Server) {
	t.Helper()
	servers := make(map[string]*transport.Server, n)
	var order []*transport.Server
	for i := 0; i < n; i++ {
		newSession := cosim.NewSession
		if gate != nil {
			newSession = gate.newSession(i)
		}
		srv, spec := startShard(t, transport.ServerConfig{NewSession: newSession, Window: 8})
		cfg.Shards = append(cfg.Shards, spec)
		servers[canonSpec(t, spec)] = srv
		order = append(order, srv)
	}
	if cfg.StatsInterval == 0 {
		cfg.StatsInterval = 20 * time.Millisecond
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.ResumeWindow == 0 {
		cfg.ResumeWindow = time.Minute
	}
	r, spec, stop := startRouter(t, cfg)
	return r, spec, stop, servers, order
}

// checkPoolsBalance asserts every pooled buffer taken since the (gets0,
// puts0) snapshot is back in the pool.
func checkPoolsBalance(t *testing.T, gets0, puts0 uint64, context string) {
	t.Helper()
	gets1, puts1 := event.PoolStats()
	if gets1-gets0 != puts1-puts0 {
		t.Errorf("pool imbalance %s: %d gets vs %d puts", context, gets1-gets0, puts1-puts0)
	}
}

// checkNoLeakedGoroutines polls for up to 2s until no goroutine but the
// caller's has a fleet or transport frame in its stack (router pumps, shard
// handlers, client readers), then reports the stragglers.
func checkNoLeakedGoroutines(t *testing.T) {
	t.Helper()
	var leaked [][]byte
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		leaked = leaked[:0]
		// The first stack is this goroutine's own.
		for _, g := range bytes.Split(buf, []byte("\n\n"))[1:] {
			if bytes.Contains(g, []byte("repro/internal/fleet.")) ||
				bytes.Contains(g, []byte("repro/internal/transport.")) {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			break
		}
	}
	for _, g := range leaked {
		t.Errorf("goroutine outlived the fleet:\n%s", g)
	}
}

// TestFleetChaosMigration is the headline gate: concurrent clean and buggy
// runs through a 3-shard fleet, one shard killed mid-run. Every session must
// reach its in-process verdict (no degradation — two healthy shards remain),
// at least one session must migrate, and once the fleet is torn down the
// buffer pools must balance and no fleet or transport goroutine may linger.
func TestFleetChaosMigration(t *testing.T) {
	cells := []struct {
		bug  string
		seed int64
	}{
		{"", 3}, {"", 11}, {"", 19},
		{"store-byte-drop", 3}, {"branch-not-taken", 3},
	}

	// Params are built on the test goroutine (fleetParams may t.Fatal).
	refParams := make([]cosim.Params, len(cells))
	for i, c := range cells {
		refParams[i] = fleetParams(t, c.bug, "", c.seed)
	}
	refs := make([]*cosim.Result, len(cells))
	var refWG sync.WaitGroup
	refErrs := make([]error, len(cells))
	for i := range cells {
		refWG.Add(1)
		go func(i int) {
			defer refWG.Done()
			refs[i], refErrs[i] = cosim.Run(refParams[i])
		}(i)
	}
	refWG.Wait()
	for i, err := range refErrs {
		if err != nil {
			t.Fatalf("reference run %d: %v", i, err)
		}
	}

	// Every shard holds its sessions at their first packet until the kill
	// has landed, so the killed shard's session cannot finish there first.
	gate := newShardGate()
	t.Cleanup(gate.open) // runs before the shards' Shutdown, which waits for held handlers
	r, spec, stopRouter, _, order := cosimFleet(t, 3, Config{}, gate)
	gets0, puts0 := event.PoolStats()

	routedParams := make([]cosim.Params, len(cells))
	for i, c := range cells {
		p := fleetParams(t, c.bug, spec, c.seed)
		p.RemoteCfg = routedCfg()
		p.Tenant = "chaos"
		routedParams[i] = p
	}
	results := make([]*cosim.Result, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for i := range cells {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = cosim.Run(routedParams[i])
		}(i)
	}

	// Kill the shard a session first entered, then let every session go.
	var victim int
	select {
	case victim = <-gate.entered:
	case <-time.After(30 * time.Second):
		t.Fatal("no session's first packet reached a shard")
	}
	killed := make(chan struct{})
	go func() {
		killShard(order[victim])
		close(killed)
	}()
	waitFor(t, 10*time.Second, "the router to see the killed shard down", func() bool {
		return r.StatsInfo().Shards[victim].State == StateDown
	})
	gate.open()
	<-killed
	t.Logf("killed shard %d mid-run", victim)

	wg.Wait()
	migrations := uint64(0)
	for i, c := range cells {
		name := c.bug
		if name == "" {
			name = "clean"
		}
		if errs[i] != nil {
			t.Fatalf("routed run %s/seed=%d: %v", name, c.seed, errs[i])
		}
		if results[i].Degraded {
			t.Errorf("run %s/seed=%d degraded with two healthy shards left", name, c.seed)
		}
		fleetVerdictEq(t, refs[i], results[i], name)
		if results[i].Exec != nil {
			migrations += results[i].Exec.Migrations
		}
	}
	if r.Migrations() == 0 {
		t.Error("router recorded no migrations after losing a loaded shard")
	}
	if migrations == 0 {
		t.Error("no client observed a migrated resume (ResumeOK.Migrated never set)")
	}
	if migrations > 0 && r.Migrations() > 0 {
		t.Logf("%d client-visible migration(s), router counted %d", migrations, r.Migrations())
	}

	// Tear the whole fleet down and check both wire ends' pools balance:
	// every frame a client windowed must be back in the pool.
	stopRouter()
	for _, srv := range order {
		killShard(srv) // all sessions are done; this just closes them out
	}
	checkPoolsBalance(t, gets0, puts0, "across the fleet")
	checkNoLeakedGoroutines(t)
}

// TestFleetLongTailMigration: a routed session whose shard dies after it has
// streamed fifty windows' worth of frames. The router holds no copy, so the
// client retransmits its whole stream — hundreds of frames, far beyond its
// window — through the router into a fresh shard. The router must swallow
// the shard credits for all but the last window of that tail (the client is
// still writing it and expects no more); forwarding them stalls the client
// until it degrades.
func TestFleetLongTailMigration(t *testing.T) {
	const window = 8 // cosimFleet's shard window; no tenant share applies
	params := func(addr string) cosim.Params {
		p := fleetParams(t, "", addr, 5)
		opt, err := cosim.ParseConfig("EBIN")
		if err != nil {
			t.Fatal(err)
		}
		opt.Executed = true
		p.Opt = opt
		p.Workload.TargetInstrs = 120_000
		p.Platform.PacketBytes = 1024
		return p
	}
	ref, err := cosim.Run(params(""))
	if err != nil {
		t.Fatal(err)
	}

	r, spec, stopRouter, servers, order := cosimFleet(t, 2, Config{}, nil)
	gets0, puts0 := event.PoolStats()
	p := params(spec)
	p.RemoteCfg = routedCfg()
	type outcome struct {
		res *cosim.Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := cosim.Run(p)
		ch <- outcome{res, err}
	}()

	var host string
	waitFor(t, 60*time.Second, "the router to forward fifty windows", func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		for _, s := range r.sessions {
			s.mu.Lock()
			frames, addr := s.frames, s.shardAddr
			s.mu.Unlock()
			if frames >= 50*window {
				host = addr
				return true
			}
		}
		return false
	})
	killShard(servers[host])

	got := <-ch
	if got.err != nil {
		t.Fatalf("routed run: %v", got.err)
	}
	if got.res.Degraded {
		t.Fatal("long-tail migration degraded with a healthy shard left")
	}
	ex := got.res.Exec
	if ex == nil || ex.Migrations < 1 || ex.ReplayedFrames < 50*window {
		t.Fatalf("want ≥1 migration retransmitting ≥%d frames, metrics %+v", 50*window, ex)
	}
	t.Logf("migrated %d time(s), %d frames retransmitted", ex.Migrations, ex.ReplayedFrames)
	fleetVerdictEq(t, ref, got.res, "long tail")

	stopRouter()
	for _, srv := range order {
		killShard(srv)
	}
	checkPoolsBalance(t, gets0, puts0, "after a long-tail migration")
	checkNoLeakedGoroutines(t)
}

// shardGate holds shard sessions at their first packet until open is
// called, and reports on entered the index of the shard where the first
// session was held.
type shardGate struct {
	entered chan int
	gate    chan struct{}
	once    sync.Once
}

func newShardGate() *shardGate {
	return &shardGate{entered: make(chan int, 1), gate: make(chan struct{})}
}

// open releases every held session, now and later; idempotent.
func (g *shardGate) open() { g.once.Do(func() { close(g.gate) }) }

// newSession builds shard i's production checker sessions, held at the gate.
func (g *shardGate) newSession(i int) transport.NewSessionFunc {
	return func(h transport.Hello) (transport.SessionChecker, error) {
		s, err := cosim.NewSession(h)
		if err != nil {
			return nil, err
		}
		return &heldSession{SessionChecker: s, shard: i, g: g}, nil
	}
}

// heldSession is a production checker session whose first Packet reports
// its shard on the gate, then waits for the gate to open.
type heldSession struct {
	transport.SessionChecker
	once  sync.Once
	shard int
	g     *shardGate
}

func (h *heldSession) Packet(buf []byte) (*checker.Mismatch, error) {
	h.once.Do(func() {
		select {
		case h.g.entered <- h.shard:
		default: // an earlier session already reported
		}
		<-h.g.gate
	})
	return h.SessionChecker.Packet(buf)
}

// TestFleetAllShardsDeadDegrades pins the satellite path: when no shard can
// take a forced resume, the router refuses it, the client surfaces
// ErrSessionLost, and cosim reruns in-process — identical verdict, Degraded
// marker, one degraded run.
func TestFleetAllShardsDeadDegrades(t *testing.T) {
	ref, err := cosim.Run(fleetParams(t, "", "", 3))
	if err != nil {
		t.Fatal(err)
	}

	// The shard holds the session at its first packet until the kill has
	// landed, so the run cannot complete there first, however fast it checks
	// or however late this goroutine is scheduled.
	gate := newShardGate()
	shard, shardSpec := startShard(t, transport.ServerConfig{Window: 8, NewSession: gate.newSession(0)})
	t.Cleanup(gate.open) // runs before the shard's Shutdown, which waits for the held handler
	r, spec, stopRouter := startRouter(t, Config{
		Shards: []string{shardSpec}, StatsInterval: 20 * time.Millisecond,
		DialTimeout: 2 * time.Second, ResumeWindow: time.Minute,
	})
	gets0, puts0 := event.PoolStats()

	type outcome struct {
		res *cosim.Result
		err error
	}
	p := fleetParams(t, "", spec, 3)
	p.RemoteCfg = routedCfg()
	ch := make(chan outcome, 1)
	go func() {
		res, err := cosim.Run(p)
		ch <- outcome{res, err}
	}()

	select {
	case <-gate.entered:
	case <-time.After(30 * time.Second):
		t.Fatal("the session's first packet never reached the shard")
	}
	killed := make(chan struct{})
	go func() {
		killShard(shard)
		close(killed)
	}()
	// Shutdown closes the listener, then (its context already expired)
	// interrupts every live connection, then waits for the held handler.
	// Once the router's polls see the shard down, let the packet through:
	// the handler's next read fails and the session leaves the shard.
	waitFor(t, 10*time.Second, "the router to see the shard down", func() bool {
		st := r.StatsInfo()
		return len(st.Shards) == 1 && st.Shards[0].State == "down"
	})
	gate.open()
	<-killed

	got := <-ch
	if got.err != nil {
		t.Fatalf("losing every shard must degrade, not fail: %v", got.err)
	}
	if !got.res.Degraded {
		t.Fatal("run not marked Degraded")
	}
	if got.res.Exec == nil || got.res.Exec.DegradedRuns != 1 {
		t.Fatalf("DegradedRuns != 1 (metrics %+v)", got.res.Exec)
	}
	fleetVerdictEq(t, ref, got.res, "degraded")
	if r.Migrations() != 0 {
		t.Errorf("Migrations() = %d with nowhere to migrate to", r.Migrations())
	}
	if r.Refused() == 0 {
		t.Error("the doomed resume was never refused at the router")
	}

	stopRouter()
	checkPoolsBalance(t, gets0, puts0, "after degradation")
}

// TestFleetTenantQuotaAdmission: a tenant at its cap is refused while
// another tenant's run proceeds through the same router — and the admitted
// run (a real cosim session with Params.Tenant set) completes normally.
func TestFleetTenantQuotaAdmission(t *testing.T) {
	r, spec, _, _, _ := cosimFleet(t, 2, Config{
		Quotas: map[string]Quota{"ci": {MaxSessions: 1}},
	}, nil)

	// A raw held-open session pins ci at its quota. The handshake must be
	// one the production shard accepts: real DUT, platform, and workload.
	hold := transport.Hello{
		Proto: transport.ProtoVersion, WireDigest: event.FormatDigest(),
		DUT: dut.XiangShanDefault().Name, Platform: platform.Palladium().Name,
		Config: "EBINSD", Workload: workload.LinuxBoot().Name,
		TargetInstrs: 1000, Seed: 1, Tenant: "ci",
	}
	holder, w := openRaw(t, spec, hold)
	if w.Session == 0 {
		t.Fatal("holder refused")
	}
	defer holder.Close()

	over := dialRaw(t, spec)
	h2 := hold
	h2.Seed = 2
	writeCtl(t, over, transport.FrameHello, &h2)
	expectRefusal(t, over, "quota")
	if r.Refused() == 0 {
		t.Error("quota refusal not counted")
	}

	p := fleetParams(t, "", spec, 7)
	p.Workload.TargetInstrs = 20_000
	p.RemoteCfg = routedCfg()
	p.Tenant = "dev"
	res, err := cosim.Run(p)
	if err != nil {
		t.Fatalf("dev run alongside a capped tenant: %v", err)
	}
	if !res.Finished || res.Mismatch != nil || res.Degraded {
		t.Fatalf("dev run verdict: finished=%v mismatch=%v degraded=%v",
			res.Finished, res.Mismatch, res.Degraded)
	}
}
