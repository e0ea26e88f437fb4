package fleet

import (
	"testing"
	"time"

	"repro/internal/cosim"
	"repro/internal/transport"
)

// benchjson's fleet area (BENCH_fleet.json) tracks what fronting difftestd
// with a router costs: full routed sessions against the direct-to-shard
// baseline, and the forwarding hot path's per-frame allocation bill.

// benchFleetSession measures a full co-simulation session — the production
// networked client against a production cosim shard — either through a
// one-shard router (routed=true) or straight at the shard. The delta between
// the two benchmarks is the router tax on the paper's loopback numbers.
func benchFleetSession(b *testing.B, routed bool) {
	_, shardSpec := startShard(b, transport.ServerConfig{NewSession: cosim.NewSession, Window: 8})
	addr := shardSpec
	if routed {
		_, rspec, _ := startRouter(b, Config{
			Shards:        []string{shardSpec},
			StatsInterval: time.Second,
			DialTimeout:   2 * time.Second,
			ResumeWindow:  time.Minute,
		})
		addr = rspec
	}
	p := fleetParams(b, "", addr, 3)
	p.Workload.TargetInstrs = 10_000
	b.ReportAllocs()
	b.ResetTimer()
	var got uint64
	for i := 0; i < b.N; i++ {
		res, err := cosim.Run(p)
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

// BenchmarkFleetRoutedSession: clean 10k-instruction run through the router.
func BenchmarkFleetRoutedSession(b *testing.B) { benchFleetSession(b, true) }

// BenchmarkFleetDirectSession: the same run straight at the shard — the
// baseline the routed number is judged against.
func BenchmarkFleetDirectSession(b *testing.B) { benchFleetSession(b, false) }

// BenchmarkFleetForward1k drives the router's forwarding hot path with raw
// frames: one op is 1000 data frames forwarded to a stub shard and credited
// back. B/op and allocs/op are the per-1000-frame bill of both pump
// directions — the number that must stay flat for the router to claim
// pooled, steady-state forwarding.
func BenchmarkFleetForward1k(b *testing.B) {
	_, spec := startShard(b, transport.ServerConfig{NewSession: stubNewSession, Window: 8})
	_, rspec, _ := startRouter(b, Config{
		Shards:        []string{spec},
		StatsInterval: time.Second,
		DialTimeout:   2 * time.Second,
		ResumeWindow:  time.Minute,
	})
	conn, _ := openRaw(b, rspec, stubHello("", 7))
	payload := make([]byte, 256)
	// Warm both pumps and the frame pools out of the measurement.
	for i := 0; i < 64; i++ {
		sendPacket(b, conn, payload)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1000; j++ {
			sendPacket(b, conn, payload)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*1000/b.Elapsed().Seconds(), "frames/s")
}
