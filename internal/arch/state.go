// Package arch implements the architectural execution engine shared by the
// reference model (internal/ref) and the DUT simulator (internal/dut).
//
// A Machine executes one instruction per Step and reports everything that
// happened in an Exec record — the raw material the DUT monitor turns into
// verification events. All architectural state mutations funnel through
// setter methods so that a compensation log (used by Replay to revert the
// reference model, paper §4.4) can record old values.
//
// The DUT attaches a device bus and bug-injection hooks; the reference model
// attaches neither and is instead synchronized with the DUT's
// non-deterministic events by the checker.
package arch

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
)

// NumCSRs is the number of implemented CSRs.
var NumCSRs = len(isa.KnownCSRs)

// csrIndex maps every 12-bit CSR address to its dense index, or -1 for an
// unimplemented address. A flat table keeps CSRIndex a bounds check and a
// load on the REF's per-instruction path.
var csrIndex = func() (t [4096]int16) {
	for i := range t {
		t[i] = -1
	}
	for i, a := range isa.KnownCSRs {
		t[a] = int16(i)
	}
	return t
}()

// CSRIndex returns the dense index of CSR address addr, or -1.
func CSRIndex(addr uint16) int {
	if int(addr) >= len(csrIndex) {
		return -1
	}
	return int(csrIndex[addr])
}

// State is the complete architectural state of a hart.
type State struct {
	PC   uint64
	GPR  [32]uint64
	FPR  [32]uint64
	VReg [32][4]uint64 // VLEN=256
	CSR  []uint64      // indexed by CSRIndex; len NumCSRs
	Priv uint64        // privilege level; this model runs in M-mode (3)

	LrValid bool
	LrAddr  uint64
}

// NewState returns a reset state with PC at the RAM base.
func NewState() State {
	s := State{PC: mem.RAMBase, Priv: 3, CSR: make([]uint64, NumCSRs)}
	s.SetCSR(isa.CSRMisa, 1<<63|1<<20|1<<12|1<<8|1<<5|1<<0) // rv64 IMAFV-ish
	s.SetCSR(isa.CSRMhartid, 0)
	s.SetCSR(isa.CSRVlenb, isa.VLenBytes)
	s.SetCSR(isa.CSRMtvec, mem.RAMBase) // sane default trap vector
	return s
}

// CSRVal returns the value of the CSR at address addr (0 if unimplemented).
func (s *State) CSRVal(addr uint16) uint64 {
	if i := CSRIndex(addr); i >= 0 {
		return s.CSR[i]
	}
	return 0
}

// SetCSR stores v into the CSR at address addr, ignoring unimplemented ones.
func (s *State) SetCSR(addr uint16, v uint64) {
	if i := CSRIndex(addr); i >= 0 {
		s.CSR[i] = v
	}
}

// Clone returns a deep copy of the state (used by snapshot-style debugging
// baselines; Replay's compensation log avoids this cost).
func (s *State) Clone() State {
	c := *s
	c.CSR = append([]uint64(nil), s.CSR...)
	return c
}

// Equal reports whether two states match exactly.
func (s *State) Equal(o *State) bool {
	if s.PC != o.PC || s.GPR != o.GPR || s.FPR != o.FPR || s.VReg != o.VReg ||
		s.Priv != o.Priv || s.LrValid != o.LrValid || s.LrAddr != o.LrAddr {
		return false
	}
	for i := range s.CSR {
		if s.CSR[i] != o.CSR[i] {
			return false
		}
	}
	return true
}

// Diff describes the first difference between two states, for bug reports.
func (s *State) Diff(o *State) string {
	if s.PC != o.PC {
		return fmt.Sprintf("PC: %#x vs %#x", s.PC, o.PC)
	}
	for i := range s.GPR {
		if s.GPR[i] != o.GPR[i] {
			return fmt.Sprintf("x%d(%s): %#x vs %#x", i, isa.RegName(uint8(i)), s.GPR[i], o.GPR[i])
		}
	}
	for i := range s.FPR {
		if s.FPR[i] != o.FPR[i] {
			return fmt.Sprintf("f%d: %#x vs %#x", i, s.FPR[i], o.FPR[i])
		}
	}
	for i := range s.VReg {
		if s.VReg[i] != o.VReg[i] {
			return fmt.Sprintf("v%d: %x vs %x", i, s.VReg[i], o.VReg[i])
		}
	}
	for i := range s.CSR {
		if s.CSR[i] != o.CSR[i] {
			return fmt.Sprintf("%s: %#x vs %#x", isa.CSRName(isa.KnownCSRs[i]), s.CSR[i], o.CSR[i])
		}
	}
	return "states equal"
}
