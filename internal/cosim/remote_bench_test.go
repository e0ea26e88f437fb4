package cosim

import (
	"testing"

	"repro/internal/transport"
	"repro/internal/workload"
)

// benchRemoteLoopback measures a full networked verification session —
// dial, handshake, framed data stream under the server's token window,
// checking in the difftestd session, verdict — against a loopback Unix
// socket. BENCHMARK.json's linux_ebin_shm and fleet_ebin_routed workloads
// gate the networked path end to end.
func benchRemoteLoopback(b *testing.B, cfg transport.ServerConfig, instrs uint64) {
	_, spec := startLoopbackServer(b, cfg)
	p := remoteParams("EBINSD", spec)
	p.Workload = scaled(workload.LinuxBoot(), instrs)
	b.ReportAllocs()
	b.ResetTimer()
	var got uint64
	for i := 0; i < b.N; i++ {
		res, err := Run(p)
		if err != nil {
			b.Fatal(err)
		}
		if res.Mismatch != nil {
			b.Fatalf("mismatch: %v", res.Mismatch)
		}
		got = res.Instrs
	}
	b.ReportMetric(float64(got)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkRemoteLoopbackSession is the steady-state number: the default
// token window keeps the link streaming, so per-session cost amortizes over
// the workload and throughput approaches the executed in-process path.
func BenchmarkRemoteLoopbackSession(b *testing.B) {
	benchRemoteLoopback(b, transport.ServerConfig{}, 10_000)
}

// BenchmarkRemoteLoopbackRTT pins the server's credit window to one token,
// forcing a full send→credit round trip per data frame — the worst-case
// flow-control RTT the paper's token-managed buffering exists to hide. The
// gap between this and BenchmarkRemoteLoopbackSession is what the window
// buys.
func BenchmarkRemoteLoopbackRTT(b *testing.B) {
	benchRemoteLoopback(b, transport.ServerConfig{Window: 1}, 2_000)
}
