package dut

import (
	"fmt"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/derive"
	"repro/internal/event"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/snapshot"
)

// Core is one hart of the DUT.
type Core struct {
	ID  uint8
	M   *arch.Machine
	Seq uint64 // committed-instruction sequence number (order-tag source)
}

// DUT is the simulated design under test.
type DUT struct {
	Cfg   Config
	RAM   *mem.Memory
	Bus   *mem.Bus
	Cores []*Core

	CycleCount uint64
	Instrs     uint64

	// Monitor statistics (per event kind).
	EventCount [event.NumKinds]uint64
	EventBytes uint64

	enabled  [event.NumKinds]bool
	rng      *rand.Rand
	finished bool
	endGroup bool

	// arena holds the current cycle's records and their encodings; it is
	// reset, not reallocated, every StepCycle.
	arena event.Arena
}

// New builds a DUT over its own clone of the program image. entries gives
// the per-core entry PCs (len ≥ Cfg.Cores); hooks, when non-nil, inject
// microarchitectural bugs into every core.
func New(cfg Config, image *mem.Memory, entries []uint64, hooks arch.Hooks) *DUT {
	if cfg.Cores < 1 {
		cfg.Cores = 1
	}
	if cfg.BurstMax < 1 {
		cfg.BurstMax = 1
	}
	ram := image.Clone()
	d := &DUT{
		Cfg:     cfg,
		RAM:     ram,
		Bus:     mem.NewBus(ram),
		enabled: cfg.EnabledKinds(),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	for i := 0; i < cfg.Cores; i++ {
		m := arch.NewMachine(ram)
		m.Bus = d.Bus
		m.Hooks = hooks
		if i < len(entries) {
			m.State.PC = entries[i]
		}
		m.State.SetCSR(isa.CSRMhartid, uint64(i))
		d.Cores = append(d.Cores, &Core{ID: uint8(i), M: m})
	}
	return d
}

// Finished reports whether the workload hit its exit trap.
func (d *DUT) Finished() bool { return d.finished }

// UARTOutput returns the console bytes the workload printed.
func (d *DUT) UARTOutput() []byte { return d.Bus.UART.Out }

// push adopts enc — the arena's buffer extended by one encoding of kind k —
// as the core's next record, unless the design does not monitor k.
func (d *DUT) push(c *Core, seq uint64, k event.Kind, enc []byte) {
	if d.enabled[k] {
		d.arena.Push(seq, c.ID, k, enc)
	}
}

func (d *DUT) pct(p int) bool { return p > 0 && d.rng.Intn(100) < p }

// StepCycle advances the DUT by one cycle and returns the verification
// events the monitor extracted, in checking order. done becomes true when
// the workload fires the exit device.
//
// The records and their encodings live in the monitor's per-cycle arena:
// they are valid until the next StepCycle, and a caller that keeps one
// longer copies it.
func (d *DUT) StepCycle() (records []event.Record, done bool) {
	if d.finished {
		return nil, true
	}
	d.arena.Reset()
	d.CycleCount++
	d.Bus.CLINT.Tick(1)

	for _, c := range d.Cores {
		d.stepCore(c)
		if d.finished {
			break
		}
	}
	for _, r := range d.arena.Recs {
		d.EventCount[r.Kind]++
	}
	d.EventBytes += uint64(len(d.arena.Buf))
	return d.arena.Recs, d.finished
}

func (d *DUT) stepCore(c *Core) {
	m := c.M

	// Reflect device interrupt lines into mip, then take a pending
	// interrupt at the cycle boundary. Interrupts are NDEs: the monitor
	// emits an Interrupt event carrying the order tag that tells the
	// checker exactly after which instruction the REF must take it.
	mip := uint64(0)
	if d.Cfg.TimerIntEnabled && d.Bus.CLINT.TimerPending() {
		mip |= 1 << isa.IntTimerM
	}
	if d.Bus.CLINT.SoftwarePending() {
		mip |= 1 << isa.IntSoftwareM
	}
	extNow := d.Cfg.ExtIntEvery > 0 &&
		(d.CycleCount+uint64(c.ID)*uint64(d.Cfg.ExtIntEvery/2))%uint64(d.Cfg.ExtIntEvery) == 0
	if extNow {
		mip |= 1 << isa.IntExternalM
	}
	virtNow := d.Cfg.VirtIntEvery > 0 && d.enabled[event.KindVirtualInterrupt] &&
		(d.CycleCount+uint64(c.ID)*uint64(d.Cfg.VirtIntEvery/2))%uint64(d.Cfg.VirtIntEvery) == 0
	if virtNow {
		mip |= 1 << isa.IntVirtual
	}
	m.State.SetCSR(isa.CSRMip, mip)

	if cause, ok := m.InterruptPendingEnabled(); ok {
		pc := m.State.PC
		if cause == isa.IntVirtual {
			vi := event.VirtualInterrupt{Cause: cause, PC: pc, HartID: uint64(c.ID)}
			d.push(c, c.Seq, event.KindVirtualInterrupt, vi.AppendTo(d.arena.Buf))
		}
		irq := event.Interrupt{Cause: cause, PC: pc}
		d.push(c, c.Seq, event.KindInterrupt, irq.AppendTo(d.arena.Buf))
		m.TakeInterrupt(cause)
		d.emitSnapshots(c, true)
		return // interrupt redirect consumes the cycle
	}

	if !d.pct(d.Cfg.StallPct) { // pipeline stall: no commits this cycle
		burst := 1 + d.rng.Intn(d.Cfg.BurstMax)
		for i := 0; i < burst; i++ {
			d.commitOne(c)
			if d.finished {
				return
			}
			// Exceptions and MMIO commits end the cycle's commit group.
			if d.endGroup {
				d.endGroup = false
				break
			}
		}
	}
	// Architectural-state snapshots are sampled every cycle (including
	// stall cycles), as DiffTest's per-cycle DPI state interfaces do.
	d.emitSnapshots(c, false)
}

// commitOne retires one instruction on core c, emitting its events.
func (d *DUT) commitOne(c *Core) bool {
	m := c.M
	vstartBefore := m.State.CSRVal(isa.CSRVstart)
	ex := m.Step()
	d.Instrs++
	c.Seq++
	seq := c.Seq

	flags := uint16(0)
	wdest, wdata := uint8(0), uint64(0)
	switch {
	case ex.WroteInt:
		flags |= event.CommitRfWen
		wdest, wdata = ex.Wdest, ex.Wdata
	case ex.WroteFp:
		flags |= event.CommitFpWen
		wdest, wdata = ex.Wdest, ex.Wdata
	case ex.WroteVec:
		flags |= event.CommitVecWen
		wdest = ex.Wdest
	}
	if ex.MMIO {
		flags |= event.CommitSkip
	}
	if ex.Special {
		flags |= event.CommitSpecial
	}
	ic := event.InstrCommit{
		PC: ex.PC, Instr: ex.Instr, Flags: flags, Wdest: wdest,
		FuType: uint8(isa.ClassOf(ex.Inst.Op)), Wdata: wdata,
		RobIdx: uint16(seq % 256),
	}
	d.push(c, seq, event.KindInstrCommit, ic.AppendTo(d.arena.Buf))

	// Deterministic, REF-derivable events come from the shared derivation
	// so the checker can recompute them bit-exactly (Squash digests).
	derive.AppendEvents(&d.arena, seq, c.ID, &d.enabled, m, &ex, vstartBefore)
	if ex.Exception {
		d.endGroup = true
	}
	d.emitHierarchy(c, seq, &ex)

	if taken := !ex.Exception && ex.NextPC != ex.PC+4; taken {
		cl := isa.ClassOf(ex.Inst.Op)
		if cl == isa.ClassBranch || cl == isa.ClassJump {
			mp := uint8(0)
			if d.pct(8) {
				mp = 1
			}
			rd := event.Redirect{PC: ex.PC, Target: ex.NextPC, Taken: 1, Mispred: mp}
			d.push(c, seq, event.KindRedirect, rd.AppendTo(d.arena.Buf))
		}
	}

	if ex.MMIO {
		d.endGroup = true
	}
	if d.Bus.Exit.Fired {
		code := d.Bus.Exit.Code
		tr := event.Trap{PC: ex.PC, Code: code, Cycle: d.CycleCount, InstrCnt: d.Instrs}
		d.push(c, seq, event.KindTrap, tr.AppendTo(d.arena.Buf))
		d.finished = true
	}
	return true
}

// emitHierarchy emits the timing-dependent memory hierarchy events (cache
// refills, TLB fills, store-buffer drains) for cacheable accesses. These are
// not REF-derivable; under Squash they travel ahead with order tags.
func (d *DUT) emitHierarchy(c *Core, seq uint64, ex *arch.Exec) {
	if !ex.Mem || ex.MMIO {
		return
	}
	if d.pct(d.Cfg.MissPct) {
		line := ex.MemAddr &^ 63
		rf := event.Refill{Addr: line}
		var raw [64]byte
		d.RAM.ReadBytes(line, raw[:])
		for i := 0; i < 8; i++ {
			for j := 7; j >= 0; j-- {
				rf.Data[i] = rf.Data[i]<<8 | uint64(raw[i*8+j])
			}
		}
		d.push(c, seq, event.KindRefill, rf.AppendTo(d.arena.Buf))
		if d.pct(d.Cfg.CMOPct) {
			cmo := event.CMO{Addr: line, Op: 1}
			d.push(c, seq, event.KindCMO, cmo.AppendTo(d.arena.Buf))
		}
	}
	if d.pct(d.Cfg.TLBPct) {
		vpn := ex.MemAddr >> 12
		l1 := event.L1TLB{VPN: vpn, PPN: vpn, Satp: c.M.State.CSRVal(isa.CSRSatp), Perm: 0xF, Level: 2}
		d.push(c, seq, event.KindL1TLB, l1.AppendTo(d.arena.Buf))
		if d.pct(25) {
			l2 := event.L2TLB{
				VPN: vpn, PPN: vpn, GVPN: vpn, Satp: c.M.State.CSRVal(isa.CSRSatp),
				Perm: 0xF, Level: 2,
			}
			d.push(c, seq, event.KindL2TLB, l2.AppendTo(d.arena.Buf))
		}
	}
	if !ex.IsLoad && d.pct(d.Cfg.SbufPct) {
		line := ex.MemAddr &^ 63
		sb := event.Sbuffer{Addr: line, Mask: ^uint64(0)}
		d.RAM.ReadBytes(line, sb.Data[:])
		d.push(c, seq, event.KindSbuffer, sb.AppendTo(d.arena.Buf))
	}
}

// emitSnapshots emits the per-cycle architectural state events the checker
// compares against the REF. afterInterrupt forces the CSR snapshot so the
// trap CSR updates are validated immediately.
func (d *DUT) emitSnapshots(c *Core, afterInterrupt bool) {
	seq := c.Seq
	d.snap(c, seq, event.KindArchIntRegState, snapshot.AppendIntRegState)
	d.snap(c, seq, event.KindCSRState, snapshot.AppendCSRState)
	if afterInterrupt {
		return
	}
	cyc := int(d.CycleCount)
	if e := d.Cfg.FpStateEvery; e > 0 && cyc%e == 0 {
		d.snap(c, seq, event.KindFpCSRState, snapshot.AppendFpCSRState)
		d.snap(c, seq, event.KindArchFpRegState, snapshot.AppendFpRegState)
	}
	if e := d.Cfg.VecStateEvery; e > 0 && cyc%e == 0 {
		d.snap(c, seq, event.KindVecCSRState, snapshot.AppendVecCSRState)
		if cyc%(e*8) == 0 {
			d.snap(c, seq, event.KindArchVecRegState, snapshot.AppendVecRegState)
		}
	}
	if e := d.Cfg.HStateEvery; e > 0 && cyc%e == 0 {
		d.snap(c, seq, event.KindHCSRState, snapshot.AppendHCSRState)
	}
	if e := d.Cfg.DbgStateEvery; e > 0 && cyc%e == 0 {
		d.snap(c, seq, event.KindDebugCSRState, snapshot.AppendDebugCSRState)
		d.snap(c, seq, event.KindTriggerCSRState, snapshot.AppendTriggerCSRState)
	}
}

// snap emits core c's snapshot of kind k, encoded by enc, when k is
// monitored.
func (d *DUT) snap(c *Core, seq uint64, k event.Kind, enc func([]byte, *arch.Machine) []byte) {
	if d.enabled[k] {
		d.arena.Push(seq, c.ID, k, enc(d.arena.Buf, c.M))
	}
}

// String summarizes the DUT.
func (d *DUT) String() string {
	return fmt.Sprintf("%s: %d-wide, %d core(s), %.1fM gates, %d event types",
		d.Cfg.Name, d.Cfg.CommitWidth, d.Cfg.Cores, d.Cfg.GatesM, d.Cfg.NumEventKinds())
}
