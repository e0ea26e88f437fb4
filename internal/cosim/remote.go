package cosim

import (
	"fmt"

	"repro/internal/transport"
	"repro/internal/workload"

	// Register the shm:// scheme: any RemoteAddr a run is pointed at may
	// name a shared-memory rendezvous, so the same-host fast path is always
	// dialable wherever a socket spec is.
	_ "repro/internal/transport/shmring"
)

// Remote co-simulation (Params.RemoteAddr): the hardware side — DUT monitor,
// acceleration unit, modeled link accounting — runs locally exactly as in
// the executed pipeline, but the software side lives in a difftestd server
// across a real link. The pipeline's consumer stage becomes the network
// send under the server's token window, so Result.Exec measures networked
// wall-clock throughput (ExecutedHz) and the token-window stalls surface as
// pipeline.Metrics.TokenStalls.
//
// The mismatch verdict comes back as a typed report frame carrying the
// checker's full diagnosis; the Replay round trip is skipped (the replay
// buffer is client-side hardware, the checker server-side), so remote runs
// report Mismatch but never Replay.

// helloFor builds the session handshake from run parameters.
func (r *runner) helloFor() transport.Hello {
	h := transport.Hello{
		DUT:          r.p.DUT.Name,
		Platform:     r.p.Platform.Name,
		Config:       r.opt.Name(),
		CoupleOrder:  r.opt.CoupleOrder,
		FixedOffset:  r.opt.FixedOffset,
		MaxFuse:      r.opt.MaxFuse,
		Workload:     r.p.Workload.Name,
		TargetInstrs: r.p.Workload.TargetInstrs,
		Seed:         r.p.Seed,
		Tenant:       r.p.Tenant,
	}
	bi, builtin := workload.ByName(r.p.Workload.Name)
	bi.TargetInstrs = r.p.Workload.TargetInstrs
	if !builtin || bi != r.p.Workload {
		// Not a profile the server can rebuild from (name, TargetInstrs) —
		// a fuzzer-mutated parameter vector: ship it whole in the handshake.
		wl := r.p.Workload
		h.Profile = &wl
	}
	return h
}

// remoteSink is the networked sink: each transfer streams to the server
// under its token window, and the verdict comes back in the closing frames.
type remoteSink struct {
	r  *runner
	cl *transport.Client
}

func dialRemoteSink(r *runner) (sink, error) {
	cl, err := transport.Dial(r.p.RemoteAddr, r.helloFor(), r.p.RemoteCfg)
	if err != nil {
		return nil, err
	}
	return &remoteSink{r: r, cl: cl}, nil
}

func (s *remoteSink) transfer(x xfer) (bool, error) {
	if x.pkt.Buf != nil {
		return s.cl.SendPacket(x.pkt)
	}
	return s.cl.SendItems(x.items)
}

func (s *remoteSink) finish() (transport.Final, error) {
	m, cl := s.r.res.Exec, s.cl
	m.TokenStalls = cl.Stalls()
	ls := cl.LinkStats()
	m.RingParks = ls.WriterParks + ls.ReaderParks

	v, err := cl.Finish()
	if err != nil {
		return transport.Final{}, err
	}
	s.r.res.Coverage = v.Coverage
	switch {
	case v.Mismatch != nil:
		// Remote diagnosis, no replay (see package comment above).
		return transport.Final{Mismatch: v.Mismatch.ToChecker()}, nil
	case !v.Finished:
		return transport.Final{}, fmt.Errorf("cosim: server closed session %d without finishing", cl.Session())
	}
	return transport.Final{TrapCode: v.TrapCode}, nil
}

// close snapshots the link's recovery history into Result.Exec on the way
// out — even when the run fails (a degraded rerun reports how many resumes
// the session survived before the budget ran out), and after Finish, which
// can itself trigger resumes while awaiting the verdict.
func (s *remoteSink) close() {
	m, cl := s.r.res.Exec, s.cl
	m.Reconnects, m.ReplayedFrames, m.Migrations = cl.Reconnects(), cl.ReplayedFrames(), cl.Migrations()
	cl.Close()
}
