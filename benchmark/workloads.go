package main

import (
	"fmt"

	"repro/internal/bugs"
	"repro/internal/cosim"
	"repro/internal/dut"
	"repro/internal/platform"
	"repro/internal/transport"
	"repro/internal/workload"
)

// linkKind says where a workload's software half runs.
type linkKind int

const (
	inProcess linkKind = iota // cosim's executed pipeline, checker in-process
	overShm                   // streamed to an in-process difftestd over shm://
	routed                    // through fleet.Router to two difftestd shards on unix://
)

// workloadDef is one named benchmark workload. Names are stable: later
// issues cite them. The sizes are frozen so one op takes roughly a quarter
// second on the 2-vCPU reference box and a 10 s run times about 40 ops.
type workloadDef struct {
	name    string
	config  string // cosim configuration: EB, EBIN or EBINSD
	instrs  uint64 // workload.Profile.TargetInstrs of every op
	cycle   int    // distinct ops (bughunt: bugs taken from the library, 0 = all); the list repeats until the run's time is up
	link    linkKind
	clients int // closed-loop client goroutines (never more than nproc = 2)
	// bugSeeds > 0 makes the ops inject the bug library, each bug on this
	// many seed-distinct programs, instead of running clean.
	bugSeeds int
}

const cleanCycle = 16

var workloads = []workloadDef{
	{name: "linux_ebinsd_exec", config: "EBINSD", instrs: 75_000, cycle: cleanCycle, clients: 1},
	{name: "linux_ebin_exec", config: "EBIN", instrs: 32_000, cycle: cleanCycle, clients: 1},
	{name: "linux_eb_exec", config: "EB", instrs: 18_000, cycle: cleanCycle, clients: 1},
	{name: "linux_ebin_shm", config: "EBIN", instrs: 28_000, cycle: cleanCycle, link: overShm, clients: 1},
	{name: "fleet_ebin_routed", config: "EBIN", instrs: 22_000, cycle: cleanCycle, link: routed, clients: 2},
	// 30k instructions, not the 200k of the paper's Figure 14 set-up: a bug
	// that does not fire runs clean to the end, and at 200k whether two or
	// five of the 57 ops do so moves a run's instruction total by half.
	{name: "bughunt_ebinsd_exec", config: "EBINSD", instrs: 30_000, clients: 1, bugSeeds: 3},
}

func workloadByName(name string) (*workloadDef, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// quickened shrinks a workload for -quick: three short ops that still take
// every path (servers, router, replay) without the timing load.
func (d workloadDef) quickened() workloadDef {
	d.instrs /= 8
	d.cycle = 3
	if d.bugSeeds > 0 {
		d.bugSeeds = 1
	}
	return d
}

// op is one co-simulation the benchmark drives: the generated inputs (Params
// without hooks) and, where set-up computed one, the sequential oracle its
// verdict is checked against.
type op struct {
	label  string
	bug    *bugs.Bug // nil for a clean op
	params cosim.Params
	oracle *cosim.Result
}

// fresh returns the op's parameters pointed at addr with newly built bug
// hooks: triggers are stateful counters, so every run needs its own.
func (o *op) fresh(addr string) (cosim.Params, *bugs.Fired) {
	p := o.params
	p.RemoteAddr = addr
	var fired *bugs.Fired
	if o.bug != nil {
		p.Hooks, fired = o.bug.Instrument(0)
	}
	return p, fired
}

// opSeed spreads run seeds apart so two runs with neighbouring -seed values
// share no program.
func opSeed(seed int64, i int) int64 { return seed*1009 + int64(i) }

// buildOps generates one cycle of ops from the run seed. Clean workloads
// boot Linux with seed-distinct programs; bughunt runs every library bug at
// its default trigger on the profile of its category (vector bugs need vector
// traffic, the rest run the hypervisor mix).
func buildOps(d workloadDef, seed int64) ([]*op, error) {
	opt, err := cosim.ParseConfig(d.config)
	if err != nil {
		return nil, err
	}
	opt.Executed = true
	mk := func(prof workload.Profile, i int) cosim.Params {
		prof.TargetInstrs = d.instrs
		p := cosim.Params{
			DUT: dut.XiangShanDefault(), Platform: platform.Palladium(),
			Opt: opt, Workload: prof, Seed: opSeed(seed, i),
		}
		if d.link == routed {
			// The router migrates by forced resume; its clients speak it.
			p.RemoteCfg = transport.ClientConfig{Resume: true}
		}
		return p
	}
	var ops []*op
	if d.bugSeeds == 0 {
		for i := 0; i < d.cycle; i++ {
			ops = append(ops, &op{label: fmt.Sprintf("seed%d", opSeed(seed, i)), params: mk(workload.LinuxBoot(), i)})
		}
		return ops, nil
	}
	lib := bugs.Library()
	if d.cycle > 0 && d.cycle < len(lib) {
		lib = lib[:d.cycle]
	}
	for i, b := range lib {
		prof := workload.KVM()
		if b.Category == bugs.CatVector {
			prof = workload.RVVTest()
		}
		for k := 0; k < d.bugSeeds; k++ {
			ops = append(ops, &op{label: fmt.Sprintf("%s#%d", b.ID, k), bug: b, params: mk(prof, i*d.bugSeeds+k)})
		}
	}
	return ops, nil
}
