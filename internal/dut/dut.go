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
	out      []event.Record
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

func (d *DUT) emit(c *Core, seq uint64, ev event.Event) {
	k := ev.Kind()
	if !d.enabled[k] {
		return
	}
	d.EventCount[k]++
	d.EventBytes += uint64(event.SizeOf(k))
	d.out = append(d.out, event.Record{Seq: seq, Core: c.ID, Ev: ev})
}

func (d *DUT) pct(p int) bool { return p > 0 && d.rng.Intn(100) < p }

// StepCycle advances the DUT by one cycle and returns the verification
// events the monitor extracted, in checking order. done becomes true when
// the workload fires the exit device.
func (d *DUT) StepCycle() (records []event.Record, done bool) {
	if d.finished {
		return nil, true
	}
	d.out = d.out[:0]
	d.CycleCount++
	d.Bus.CLINT.Tick(1)

	for _, c := range d.Cores {
		d.stepCore(c)
		if d.finished {
			break
		}
	}
	return d.out, d.finished
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
			d.emit(c, c.Seq, &event.VirtualInterrupt{Cause: cause, PC: pc, HartID: uint64(c.ID)})
		}
		d.emit(c, c.Seq, &event.Interrupt{Cause: cause, PC: pc})
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
	d.emit(c, seq, &event.InstrCommit{
		PC: ex.PC, Instr: ex.Instr, Flags: flags, Wdest: wdest,
		FuType: uint8(isa.ClassOf(ex.Inst.Op)), Wdata: wdata,
		RobIdx: uint16(seq % 256),
	})

	// Deterministic, REF-derivable events come from the shared derivation
	// so the checker can recompute them bit-exactly (Squash digests).
	for _, ev := range derive.Events(m, &ex, vstartBefore) {
		d.emit(c, seq, ev)
	}
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
			d.emit(c, seq, &event.Redirect{PC: ex.PC, Target: ex.NextPC, Taken: 1, Mispred: mp})
		}
	}

	if ex.MMIO {
		d.endGroup = true
	}
	if d.Bus.Exit.Fired {
		code := d.Bus.Exit.Code
		d.emit(c, seq, &event.Trap{PC: ex.PC, Code: code, Cycle: d.CycleCount, InstrCnt: d.Instrs})
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
		rf := &event.Refill{Addr: line}
		var raw [64]byte
		d.RAM.ReadBytes(line, raw[:])
		for i := 0; i < 8; i++ {
			for j := 7; j >= 0; j-- {
				rf.Data[i] = rf.Data[i]<<8 | uint64(raw[i*8+j])
			}
		}
		d.emit(c, seq, rf)
		if d.pct(d.Cfg.CMOPct) {
			d.emit(c, seq, &event.CMO{Addr: line, Op: 1})
		}
	}
	if d.pct(d.Cfg.TLBPct) {
		vpn := ex.MemAddr >> 12
		d.emit(c, seq, &event.L1TLB{VPN: vpn, PPN: vpn, Satp: c.M.State.CSRVal(isa.CSRSatp), Perm: 0xF, Level: 2})
		if d.pct(25) {
			d.emit(c, seq, &event.L2TLB{
				VPN: vpn, PPN: vpn, GVPN: vpn, Satp: c.M.State.CSRVal(isa.CSRSatp),
				Perm: 0xF, Level: 2,
			})
		}
	}
	if !ex.IsLoad && d.pct(d.Cfg.SbufPct) {
		line := ex.MemAddr &^ 63
		sb := &event.Sbuffer{Addr: line, Mask: ^uint64(0)}
		d.RAM.ReadBytes(line, sb.Data[:])
		d.emit(c, seq, sb)
	}
}

// emitSnapshots emits the per-cycle architectural state events the checker
// compares against the REF. afterInterrupt forces the CSR snapshot so the
// trap CSR updates are validated immediately.
func (d *DUT) emitSnapshots(c *Core, afterInterrupt bool) {
	seq := c.Seq
	m := c.M
	d.emit(c, seq, box(snapshot.IntRegState(m)))
	d.emit(c, seq, box(snapshot.CSRState(m)))
	if afterInterrupt {
		return
	}
	cyc := int(d.CycleCount)
	if e := d.Cfg.FpStateEvery; e > 0 && cyc%e == 0 {
		d.emit(c, seq, box(snapshot.FpCSRState(m)))
		d.emit(c, seq, box(snapshot.FpRegState(m)))
	}
	if e := d.Cfg.VecStateEvery; e > 0 && cyc%e == 0 {
		d.emit(c, seq, box(snapshot.VecCSRState(m)))
		if cyc%(e*8) == 0 {
			d.emit(c, seq, box(snapshot.VecRegState(m)))
		}
	}
	if e := d.Cfg.HStateEvery; e > 0 && cyc%e == 0 {
		d.emit(c, seq, box(snapshot.HCSRState(m)))
	}
	if e := d.Cfg.DbgStateEvery; e > 0 && cyc%e == 0 {
		d.emit(c, seq, box(snapshot.DebugCSRState(m)))
		d.emit(c, seq, box(snapshot.TriggerCSRState(m)))
	}
}

// box moves a snapshot value to the heap as the event the monitor emits.
func box[T any](v T) *T { return &v }

func sizeMask(size int) uint64 {
	if size >= 8 {
		return ^uint64(0)
	}
	return 1<<(8*size) - 1
}

// String summarizes the DUT.
func (d *DUT) String() string {
	return fmt.Sprintf("%s: %d-wide, %d core(s), %.1fM gates, %d event types",
		d.Cfg.Name, d.Cfg.CommitWidth, d.Cfg.Cores, d.Cfg.GatesM, d.Cfg.NumEventKinds())
}
