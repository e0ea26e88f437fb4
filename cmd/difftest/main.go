// Command difftest runs one hardware-accelerated co-simulation: a DUT on a
// modeled acceleration platform, checked instruction-by-instruction against
// the reference model, with the selected communication optimizations.
//
// Usage:
//
//	difftest -dut xiangshan -platform palladium -config EBINSD -workload linux
//	difftest -bug load-sign-extension -config EBINSD   # inject and detect a bug
//	difftest -executed                                 # modeled vs executed pipeline
//	difftest -remote unix:/tmp/difftestd.sock          # check on a difftestd server
//	difftest -remote shm:///dev/shm/difftest           # same host, shared-memory ring
//	difftest -transport shm -remote /dev/shm/difftest  # same, platform-sized rings
//	difftest -executed -shm                            # comparison incl. in-process shm row
//	difftest -list                                     # show available options
//
// SIGINT/SIGTERM cancel the run cooperatively: the co-simulation loop drains
// its in-flight pooled buffers through the normal release paths before the
// process exits, so an interrupted run still reports a balanced buffer pool.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/arch"
	"repro/internal/bugs"
	"repro/internal/cosim"
	"repro/internal/dut"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/workload"
)

func main() {
	var (
		dutName  = flag.String("dut", "xiangshan", "DUT: nutshell, xiangshan-minimal, xiangshan, xiangshan-dual")
		platName = flag.String("platform", "palladium", "platform: palladium, fpga, verilator")
		cfgName  = flag.String("config", "EBINSD", "optimizations: Z, EB, EBIN, EBINSD")
		wlName   = flag.String("workload", "linux", "workload: linux, microbench, spec, kvm, xvisor, rvv_test")
		instrs   = flag.Uint64("instrs", 200_000, "target dynamic instructions")
		seed     = flag.Int64("seed", 7, "workload generation seed")
		bugID    = flag.String("bug", "", "inject a bug from the library (see -list)")
		threads  = flag.Int("threads", 16, "verilator host threads")
		executed = flag.Bool("executed", false,
			"run every configuration through both the analytic model and the executed concurrent pipeline and report speedup deltas")
		remote = flag.String("remote", "",
			"stream the hardware side to a difftestd server at this address (tcp://host:port, unix:///path, shm:///dir, or the legacy host:port / unix:<path> forms); with -executed, adds a networked column to the comparison")
		transportName = flag.String("transport", "",
			"force the -remote transport scheme (tcp, unix, shm): the -remote value is taken as a bare address — host:port for tcp, a path for unix, a rendezvous directory for shm; shm sizes its rings from the platform operating point")
		shm = flag.Bool("shm", false,
			"with -executed: run each configuration a further time against an in-process difftestd over the shared-memory ring transport, adding Shm wall/speedup/ring-parks columns to the comparison")
		retries = flag.Int("retries", 0,
			"with -remote: reconnect attempts per disconnect before degrading to in-process checking (0 = transport default)")
		backoff = flag.Duration("backoff", 0,
			"with -remote: first reconnect delay, doubled per retry and jittered ±50% (0 = transport default)")
		backoffMax = flag.Duration("backoff-max", 0,
			"with -remote: cap on the reconnect delay (0 = transport default)")
		stall = flag.Duration("stall", 0,
			"with -remote: declare a silently hung connection dead after this long without progress (0 = wait forever)")
		verbose = flag.Bool("v", false, "print communication counters")
		list    = flag.Bool("list", false, "list DUTs, workloads, and bugs")
	)
	flag.Parse()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	if *list {
		printOptions()
		return
	}

	d, err := pickDUT(*dutName)
	exitOn(err)
	p, err := pickPlatform(*platName, *threads)
	exitOn(err)
	o, err := cosim.ParseConfig(*cfgName)
	exitOn(err)
	wl, ok := workload.ByName(*wlName)
	if !ok {
		exitOn(fmt.Errorf("unknown workload %q", *wlName))
	}
	wl.TargetInstrs = *instrs

	var hooks arch.Hooks
	var freshHooks func() arch.Hooks
	if *bugID != "" {
		b, ok := bugs.ByID(*bugID)
		if !ok {
			exitOn(fmt.Errorf("unknown bug %q", *bugID))
		}
		hooks = b.Hooks(0)
		freshHooks = func() arch.Hooks { return b.Hooks(0) }
		fmt.Printf("injecting %s (%s): %s\n", b.ID, b.PR, b.Description)
	}

	remoteSpec, err := resolveRemoteSpec(*remote, *transportName, p)
	exitOn(err)
	if *shm && !*executed {
		exitOn(fmt.Errorf("-shm extends the -executed comparison; add -executed (or point -remote at a difftestd listening on shm://...)"))
	}

	remoteCfg := transport.ClientConfig{
		MaxRetries:   *retries,
		BackoffBase:  *backoff,
		BackoffMax:   *backoffMax,
		StallTimeout: *stall,
	}

	if *executed {
		cmp, err := cosim.CompareModes(cosim.Params{
			DUT: d, Platform: p, Opt: o, Workload: wl, Seed: *seed, Hooks: hooks,
			Ctx: ctx, RemoteAddr: remoteSpec, RemoteCfg: remoteCfg, ShmLoopback: *shm,
		}, freshHooks)
		exitOn(err)
		printComparison(cmp)
		for _, row := range cmp.Rows {
			if row.Modeled.Mismatch != nil || row.Executed.Mismatch != nil ||
				(row.Remote != nil && row.Remote.Mismatch != nil) ||
				(row.Shm != nil && row.Shm.Mismatch != nil) {
				os.Exit(2)
			}
		}
		return
	}

	res, err := cosim.Run(cosim.Params{
		DUT: d, Platform: p, Opt: o, Workload: wl, Seed: *seed, Hooks: hooks,
		Ctx: ctx, RemoteAddr: remoteSpec, RemoteCfg: remoteCfg,
	})
	exitOn(err)

	fmt.Println(res.Summary())
	fmt.Printf("Simulation speed: %.2f KHz\n", res.SpeedHz/1e3)
	if res.Replay != nil {
		fmt.Println(res.Replay)
	}
	if *verbose {
		fmt.Printf("\ncommunication: %d invokes, %d wire bytes, %.3g s software\n",
			res.Invokes, res.WireBytes, res.SWSeconds)
		fmt.Printf("monitor: %.1f events/cycle, %.0f bytes/cycle, %.0f bytes/instr\n",
			res.EventsPerCycle, res.BytesPerCycle, res.BytesPerInstr)
		fmt.Printf("comm overhead share: %.2f%%  breakdown: %v\n",
			res.CommOverheadShare*100, res.Breakdown)
		if res.Fusion.Windows > 0 {
			fmt.Printf("squash: fusion ratio %.1f (%d windows, %d NDEs ahead, %d diffs)\n",
				res.Fusion.FusionRatio(), res.Fusion.Windows, res.Fusion.NDEsAhead, res.Fusion.Diffs)
		}
		if res.PacketUtilation > 0 {
			fmt.Printf("batch: packet utilization %.2f\n", res.PacketUtilation)
		}
	}
	if *remote != "" && res.Exec != nil {
		fmt.Printf("remote: wall %s, backpressure %d, token stalls %d\n",
			res.Exec.Wall.Round(time.Microsecond), res.Exec.Backpressure, res.Exec.TokenStalls)
		if res.Exec.RingParks > 0 {
			fmt.Printf("remote link: %d ring park(s) (shared-memory spin budget exhaustions)\n",
				res.Exec.RingParks)
		}
		if res.Exec.Reconnects > 0 || res.Exec.ReplayedFrames > 0 || res.Degraded {
			fmt.Printf("remote link: %d reconnect(s), %d replayed frame(s), degraded=%v\n",
				res.Exec.Reconnects, res.Exec.ReplayedFrames, res.Degraded)
		}
	}
	if res.Mismatch != nil {
		os.Exit(2)
	}
}

// resolveRemoteSpec folds the -transport override into the -remote address:
// with -transport set, the -remote value is a bare address the scheme is
// prefixed onto, and an shm spec with no explicit ?ring= option inherits the
// platform operating point's ring size.
func resolveRemoteSpec(remote, scheme string, p platform.Platform) (string, error) {
	if scheme == "" {
		return remote, nil
	}
	if remote == "" {
		return "", fmt.Errorf("-transport %s needs -remote with an address", scheme)
	}
	switch scheme {
	case "tcp", "unix", "shm":
	default:
		return "", fmt.Errorf("unknown -transport %q (tcp, unix, shm)", scheme)
	}
	spec := scheme + "://" + remote
	if scheme == "shm" && !strings.Contains(remote, "?ring=") && p.ShmRingBytes > 0 {
		spec = fmt.Sprintf("%s?ring=%d", spec, p.ShmRingBytes)
	}
	return spec, nil
}

func pickDUT(name string) (dut.Config, error) {
	switch strings.ToLower(name) {
	case "nutshell":
		return dut.NutShell(), nil
	case "xiangshan-minimal", "minimal":
		return dut.XiangShanMinimal(), nil
	case "xiangshan", "default":
		return dut.XiangShanDefault(), nil
	case "xiangshan-dual", "dual":
		return dut.XiangShanDefaultDual(), nil
	}
	return dut.Config{}, fmt.Errorf("unknown DUT %q", name)
}

func pickPlatform(name string, threads int) (platform.Platform, error) {
	switch strings.ToLower(name) {
	case "palladium", "pldm", "emulator":
		return platform.Palladium(), nil
	case "fpga", "vu19p":
		return platform.FPGA(), nil
	case "verilator", "rtl":
		return platform.Verilator(threads), nil
	}
	return platform.Platform{}, fmt.Errorf("unknown platform %q", name)
}

// printComparison renders the modeled-vs-executed table: the analytic model
// predicts speedups from the platform cost model; the executed pipeline
// measures how much wall-clock overlap the concurrency achieves on this
// host. When the comparison ran against a difftestd server, a third group of
// columns reports the networked run: wall clock, speedup over the networked
// baseline, and token-window stalls (the credit window filling up — the
// networked analogue of local backpressure).
func printComparison(cmp *cosim.ModeComparison) {
	remote := len(cmp.Rows) > 0 && cmp.Rows[0].Remote != nil
	shm := len(cmp.Rows) > 0 && cmp.Rows[0].Shm != nil
	switch {
	case remote && shm:
		fmt.Println("Modeled (analytic) vs executed (concurrent pipeline) vs remote (difftestd) vs shm (shared-memory ring):")
	case remote:
		fmt.Println("Modeled (analytic) vs executed (concurrent pipeline) vs remote (difftestd):")
	case shm:
		fmt.Println("Modeled (analytic) vs executed (concurrent pipeline) vs shm (shared-memory ring):")
	default:
		fmt.Println("Modeled (analytic) vs executed (concurrent pipeline):")
	}
	header := []string{"Config", "Modeled speed", "Modeled speedup",
		"Executed wall", "Executed speedup", "Overlap", "Backpressure"}
	if remote {
		header = append(header, "Remote wall", "Remote speedup", "Token stalls")
	}
	if shm {
		header = append(header, "Shm wall", "Shm speedup", "Ring parks")
	}
	header = append(header, "Verdict")
	var rows [][]string
	anyDegraded := false
	for i, row := range cmp.Rows {
		ex := row.Executed.Exec
		verdict := "clean"
		if row.Executed.Mismatch != nil {
			verdict = "mismatch"
		}
		cells := []string{
			row.Config,
			fmt.Sprintf("%.1f KHz", row.Modeled.SpeedHz/1e3),
			fmt.Sprintf("%.2fx", cmp.ModeledSpeedup(i)),
			ex.Wall.Round(time.Microsecond).String(),
			fmt.Sprintf("%.2fx", cmp.ExecutedSpeedup(i)),
			fmt.Sprintf("%.0f%%", ex.OverlapShare()*100),
			fmt.Sprint(ex.Backpressure),
		}
		if remote {
			rx := row.Remote.Exec
			wall := rx.Wall.Round(time.Microsecond).String()
			speedup := fmt.Sprintf("%.2fx", cmp.RemoteSpeedup(i))
			if row.Remote.Degraded {
				// The session outlived its retry budget; the verdict comes
				// from the in-process rerun, so no networked numbers exist.
				wall, speedup = "degraded", "-"
				anyDegraded = true
			}
			cells = append(cells, wall, speedup, fmt.Sprint(rx.TokenStalls))
			if row.Remote.Mismatch != nil {
				verdict = "mismatch"
			}
		}
		if shm {
			sx := row.Shm.Exec
			cells = append(cells,
				sx.Wall.Round(time.Microsecond).String(),
				fmt.Sprintf("%.2fx", cmp.ShmSpeedup(i)),
				fmt.Sprint(sx.RingParks))
			if row.Shm.Mismatch != nil {
				verdict = "mismatch"
			}
		}
		rows = append(rows, append(cells, verdict))
	}
	fmt.Print(stats.Table(header, rows))
	fmt.Println("note: modeled speedups come from the platform cost model (simulated time);")
	fmt.Println("      executed speedups are measured wall clock and depend on host cores")
	if remote {
		fmt.Println("      remote speedups include real socket framing and the server's token window")
	}
	if shm {
		fmt.Println("      shm rows stream the same protocol over the zero-syscall shared-memory ring;")
		fmt.Println("      ring parks count spin-budget exhaustions (the ring-level analogue of stalls)")
	}
	if anyDegraded {
		fmt.Println("      'degraded' rows lost their difftestd session beyond the retry budget;")
		fmt.Println("      their verdicts come from the in-process rerun and are still authoritative")
	}
}

func printOptions() {
	fmt.Println("DUTs:")
	for _, d := range dut.Configs() {
		fmt.Printf("  %-28s %5.1fM gates, %d-wide, %d core(s), %d event types\n",
			d.Name, d.GatesM, d.CommitWidth, d.Cores, d.NumEventKinds())
	}
	fmt.Println("\nWorkloads:")
	for _, w := range workload.Profiles() {
		fmt.Printf("  %-12s MMIO %d‰, ecall %d‰, timer %d\n",
			w.Name, w.MMIOPerMille, w.EcallPerMille, w.TimerInterval)
	}
	fmt.Println("\nBugs:")
	for _, b := range bugs.Library() {
		fmt.Printf("  %s\n", b)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "difftest:", err)
		os.Exit(1)
	}
}
