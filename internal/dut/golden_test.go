package dut_test

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/dut"
	"repro/internal/event"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden fixtures")

// monitorStreamLines renders, per design × workload × seed, the digest of the
// monitor stream: every record's (seq, core, kind, encoding) in emission
// order, cycle boundaries included.
func monitorStreamLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, cfg := range dut.Configs() {
		for _, prof := range []workload.Profile{workload.LinuxBoot(), workload.KVM(), workload.RVVTest()} {
			for _, seed := range []int64{1, 2} {
				prof.TargetInstrs = 12_000
				prog := workload.Generate(prof, cfg.Cores, seed)
				d := dut.New(cfg, prog.Image, prog.Entries, arch.Hooks{})
				h := sha256.New()
				var hdr [18]byte
				recs := 0
				for done := false; !done; {
					if d.CycleCount > 10_000_000 {
						t.Fatalf("%s/%s/%d did not finish", cfg.Name, prof.Name, seed)
					}
					var cycle []event.Record
					cycle, done = d.StepCycle()
					binary.LittleEndian.PutUint64(hdr[0:], d.CycleCount)
					binary.LittleEndian.PutUint64(hdr[8:], uint64(len(cycle)))
					h.Write(hdr[:16])
					for _, rec := range cycle {
						binary.LittleEndian.PutUint64(hdr[0:], rec.Seq)
						hdr[8], hdr[9] = rec.Core, uint8(rec.Kind)
						h.Write(hdr[:10])
						h.Write(rec.Data)
						recs++
					}
				}
				lines = append(lines, fmt.Sprintf("%s %s seed=%d cycles=%d instrs=%d records=%d bytes=%d sha256=%x",
					cfg.Name, prof.Name, seed, d.CycleCount, d.Instrs, recs, d.EventBytes, h.Sum(nil)))
			}
		}
	}
	return lines
}

// TestMonitorStreamGolden pins the monitor's output byte for byte: the
// fixture was captured before the monitor emitted encodings directly, so it
// proves the byte-native DUT emits exactly the stream the boxed one did.
func TestMonitorStreamGolden(t *testing.T) {
	got := monitorStreamLines(t)
	path := filepath.Join("testdata", "monitor_stream.txt")
	if *updateGolden {
		body := "# Regenerate with: go test ./internal/dut -run TestMonitorStreamGolden -update\n" + strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden fixture missing (run with -update to create): %v", err)
	}
	var want []string
	for _, l := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if !strings.HasPrefix(l, "#") {
			want = append(want, l)
		}
	}
	if len(want) != len(got) {
		t.Fatalf("fixture has %d lines, run produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("monitor stream drifted:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
