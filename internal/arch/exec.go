package arch

import (
	"math"
	"math/bits"

	"repro/internal/isa"
)

// Step fetches, decodes, and executes one instruction, returning the Exec
// record. Exceptions are architecturally taken (CSRs updated, PC vectored)
// and reported in the record; Step never returns an error for architectural
// conditions.
//
// The record is built in the machine's own m.exec and returned by value: a
// local record would escape to the heap through the writeback closures and
// the AfterExec hook, one allocation per instruction.
func (m *Machine) Step() Exec {
	pc := m.State.PC
	raw := uint32(m.Mem.Read(pc&PhysMask, 4))
	ex := &m.exec
	*ex = Exec{PC: pc, Instr: raw}

	in, err := isa.Decode(raw)
	ex.Inst = in
	if err != nil {
		m.RaiseException(isa.ExcIllegalInstr, uint64(raw))
		ex.Exception, ex.Cause, ex.Tval = true, isa.ExcIllegalInstr, uint64(raw)
		ex.NextPC = m.State.PC
		m.InstrRet++
		m.runHook(ex)
		return *ex
	}

	next := pc + 4
	s := &m.State
	rs1 := s.GPR[in.Rs1]
	rs2 := s.GPR[in.Rs2]

	writeInt := func(v uint64) {
		m.SetGPR(in.Rd, v)
		ex.WroteInt, ex.Wdest, ex.Wdata = true, in.Rd, v
		if in.Rd == 0 {
			ex.Wdata = 0
		}
	}
	writeFp := func(v uint64) {
		m.SetFPR(in.Rd, v)
		ex.WroteFp, ex.Wdest, ex.Wdata = true, in.Rd, v
	}
	raise := func(cause, tval uint64) {
		m.RaiseException(cause, tval)
		ex.Exception, ex.Cause, ex.Tval = true, cause, tval
	}

	switch in.Op {
	case isa.OpLUI:
		writeInt(uint64(in.Imm))
	case isa.OpAUIPC:
		writeInt(pc + uint64(in.Imm))
	case isa.OpJAL:
		writeInt(pc + 4)
		next = pc + uint64(in.Imm)
	case isa.OpJALR:
		t := (rs1 + uint64(in.Imm)) &^ 1
		writeInt(pc + 4)
		next = t

	case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU:
		taken := false
		switch in.Op {
		case isa.OpBEQ:
			taken = rs1 == rs2
		case isa.OpBNE:
			taken = rs1 != rs2
		case isa.OpBLT:
			taken = int64(rs1) < int64(rs2)
		case isa.OpBGE:
			taken = int64(rs1) >= int64(rs2)
		case isa.OpBLTU:
			taken = rs1 < rs2
		case isa.OpBGEU:
			taken = rs1 >= rs2
		}
		if taken {
			next = pc + uint64(in.Imm)
		}

	case isa.OpLB, isa.OpLH, isa.OpLW, isa.OpLD, isa.OpLBU, isa.OpLHU, isa.OpLWU:
		addr := (rs1 + uint64(in.Imm)) & PhysMask
		size := isa.MemSize(in.Op)
		v, mmio := m.LoadMem(addr, size)
		switch in.Op {
		case isa.OpLB:
			v = uint64(int64(int8(v)))
		case isa.OpLH:
			v = uint64(int64(int16(v)))
		case isa.OpLW:
			v = uint64(int64(int32(v)))
		}
		writeInt(v)
		ex.Mem, ex.IsLoad, ex.MemAddr, ex.MemSize, ex.MemData, ex.MMIO = true, true, addr, size, v, mmio

	case isa.OpSB, isa.OpSH, isa.OpSW, isa.OpSD:
		addr := (rs1 + uint64(in.Imm)) & PhysMask
		size := isa.MemSize(in.Op)
		mmio := m.StoreMem(addr, size, rs2)
		ex.Mem, ex.MemAddr, ex.MemSize, ex.MemData, ex.MMIO = true, addr, size, rs2, mmio

	case isa.OpADDI:
		writeInt(rs1 + uint64(in.Imm))
	case isa.OpSLTI:
		writeInt(b2u(int64(rs1) < in.Imm))
	case isa.OpSLTIU:
		writeInt(b2u(rs1 < uint64(in.Imm)))
	case isa.OpXORI:
		writeInt(rs1 ^ uint64(in.Imm))
	case isa.OpORI:
		writeInt(rs1 | uint64(in.Imm))
	case isa.OpANDI:
		writeInt(rs1 & uint64(in.Imm))
	case isa.OpSLLI:
		writeInt(rs1 << uint64(in.Imm&63))
	case isa.OpSRLI:
		writeInt(rs1 >> uint64(in.Imm&63))
	case isa.OpSRAI:
		writeInt(uint64(int64(rs1) >> uint64(in.Imm&63)))

	case isa.OpADD:
		writeInt(rs1 + rs2)
	case isa.OpSUB:
		writeInt(rs1 - rs2)
	case isa.OpSLL:
		writeInt(rs1 << (rs2 & 63))
	case isa.OpSLT:
		writeInt(b2u(int64(rs1) < int64(rs2)))
	case isa.OpSLTU:
		writeInt(b2u(rs1 < rs2))
	case isa.OpXOR:
		writeInt(rs1 ^ rs2)
	case isa.OpSRL:
		writeInt(rs1 >> (rs2 & 63))
	case isa.OpSRA:
		writeInt(uint64(int64(rs1) >> (rs2 & 63)))
	case isa.OpOR:
		writeInt(rs1 | rs2)
	case isa.OpAND:
		writeInt(rs1 & rs2)

	case isa.OpADDIW:
		writeInt(sext32(uint32(rs1) + uint32(in.Imm)))
	case isa.OpSLLIW:
		writeInt(sext32(uint32(rs1) << uint32(in.Imm&31)))
	case isa.OpSRLIW:
		writeInt(sext32(uint32(rs1) >> uint32(in.Imm&31)))
	case isa.OpSRAIW:
		writeInt(uint64(int64(int32(rs1) >> uint32(in.Imm&31))))
	case isa.OpADDW:
		writeInt(sext32(uint32(rs1) + uint32(rs2)))
	case isa.OpSUBW:
		writeInt(sext32(uint32(rs1) - uint32(rs2)))
	case isa.OpSLLW:
		writeInt(sext32(uint32(rs1) << (rs2 & 31)))
	case isa.OpSRLW:
		writeInt(sext32(uint32(rs1) >> (rs2 & 31)))
	case isa.OpSRAW:
		writeInt(uint64(int64(int32(rs1) >> (rs2 & 31))))

	case isa.OpMUL:
		writeInt(rs1 * rs2)
	case isa.OpMULH:
		writeInt(mulh(rs1, rs2))
	case isa.OpMULHSU:
		writeInt(mulhsu(rs1, rs2))
	case isa.OpMULHU:
		hi, _ := bits.Mul64(rs1, rs2)
		writeInt(hi)
	case isa.OpDIV:
		writeInt(uint64(divS(int64(rs1), int64(rs2))))
	case isa.OpDIVU:
		writeInt(divU(rs1, rs2))
	case isa.OpREM:
		writeInt(uint64(remS(int64(rs1), int64(rs2))))
	case isa.OpREMU:
		writeInt(remU(rs1, rs2))
	case isa.OpMULW:
		writeInt(sext32(uint32(rs1) * uint32(rs2)))
	case isa.OpDIVW:
		writeInt(uint64(int64(int32(divS(int64(int32(rs1)), int64(int32(rs2)))))))
	case isa.OpDIVUW:
		writeInt(sext32(uint32(divU(uint64(uint32(rs1)), uint64(uint32(rs2))))))
	case isa.OpREMW:
		writeInt(uint64(int64(int32(remS(int64(int32(rs1)), int64(int32(rs2)))))))
	case isa.OpREMUW:
		writeInt(sext32(uint32(remU(uint64(uint32(rs1)), uint64(uint32(rs2))))))

	case isa.OpCSRRW, isa.OpCSRRS, isa.OpCSRRC, isa.OpCSRRWI, isa.OpCSRRSI, isa.OpCSRRCI:
		old := s.CSRVal(in.CSR)
		var operand uint64
		switch in.Op {
		case isa.OpCSRRW, isa.OpCSRRS, isa.OpCSRRC:
			operand = rs1
		default:
			operand = uint64(in.Rs1) // zimm
		}
		switch in.Op {
		case isa.OpCSRRW, isa.OpCSRRWI:
			m.SetCSRAddr(in.CSR, operand)
		case isa.OpCSRRS, isa.OpCSRRSI:
			if in.Rs1 != 0 {
				m.SetCSRAddr(in.CSR, old|operand)
			}
		case isa.OpCSRRC, isa.OpCSRRCI:
			if in.Rs1 != 0 {
				m.SetCSRAddr(in.CSR, old&^operand)
			}
		}
		writeInt(old)

	case isa.OpFENCE:
		ex.Special = true
	case isa.OpECALL:
		raise(isa.ExcEcallM, 0)
		ex.Special = true
		next = m.State.PC
	case isa.OpEBREAK:
		raise(isa.ExcBreakpoint, pc)
		ex.Special = true
		next = m.State.PC
	case isa.OpMRET:
		m.popStatusStack()
		next = s.CSRVal(isa.CSRMepc)
		ex.Special = true
	case isa.OpWFI:
		ex.Special = true

	case isa.OpLRD:
		addr := rs1 & PhysMask
		v, mmio := m.LoadMem(addr, 8)
		m.setLr(true, addr)
		writeInt(v)
		ex.Mem, ex.IsLoad, ex.MemAddr, ex.MemSize, ex.MemData, ex.MMIO = true, true, addr, 8, v, mmio
		ex.LrSc = true
	case isa.OpSCD:
		addr := rs1 & PhysMask
		ok := s.LrValid && s.LrAddr == addr
		if ok {
			m.StoreMem(addr, 8, rs2)
			ex.Mem, ex.MemAddr, ex.MemSize, ex.MemData = true, addr, 8, rs2
		}
		m.setLr(false, 0)
		writeInt(b2u(!ok))
		ex.LrSc, ex.ScSuccess = true, ok
	case isa.OpAMOSWAPD, isa.OpAMOADDD, isa.OpAMOXORD, isa.OpAMOANDD, isa.OpAMOORD:
		addr := rs1 & PhysMask
		old, mmio := m.LoadMem(addr, 8)
		var nv uint64
		switch in.Op {
		case isa.OpAMOSWAPD:
			nv = rs2
		case isa.OpAMOADDD:
			nv = old + rs2
		case isa.OpAMOXORD:
			nv = old ^ rs2
		case isa.OpAMOANDD:
			nv = old & rs2
		case isa.OpAMOORD:
			nv = old | rs2
		}
		m.StoreMem(addr, 8, nv)
		writeInt(old)
		ex.Mem, ex.MemAddr, ex.MemSize, ex.MemData, ex.MMIO = true, addr, 8, nv, mmio
		ex.Atomic, ex.AtomicOld = true, old

	case isa.OpFLD:
		addr := (rs1 + uint64(in.Imm)) & PhysMask
		v, mmio := m.LoadMem(addr, 8)
		writeFp(v)
		ex.Mem, ex.IsLoad, ex.MemAddr, ex.MemSize, ex.MemData, ex.MMIO = true, true, addr, 8, v, mmio
	case isa.OpFSD:
		addr := (rs1 + uint64(in.Imm)) & PhysMask
		v := s.FPR[in.Rs2]
		mmio := m.StoreMem(addr, 8, v)
		ex.Mem, ex.MemAddr, ex.MemSize, ex.MemData, ex.MMIO = true, addr, 8, v, mmio
	case isa.OpFADDD, isa.OpFSUBD, isa.OpFMULD:
		a := math.Float64frombits(s.FPR[in.Rs1])
		b := math.Float64frombits(s.FPR[in.Rs2])
		var r float64
		switch in.Op {
		case isa.OpFADDD:
			r = a + b
		case isa.OpFSUBD:
			r = a - b
		default:
			r = a * b
		}
		writeFp(math.Float64bits(r))
	case isa.OpFMVXD:
		writeInt(s.FPR[in.Rs1])
	case isa.OpFMVDX:
		writeFp(rs1)
	case isa.OpFSGNJD:
		writeFp(s.FPR[in.Rs1]&^(1<<63) | s.FPR[in.Rs2]&(1<<63))

	case isa.OpVSETVLI:
		req := rs1
		if in.Rs1 == 0 {
			req = 4
		}
		vl := req
		if vl > 4 {
			vl = 4
		}
		m.SetCSRAddr(isa.CSRVl, vl)
		m.SetCSRAddr(isa.CSRVtype, uint64(in.Imm)&0x7FF)
		writeInt(vl)
		ex.Vec, ex.Vl = true, vl
	case isa.OpVADDVV, isa.OpVXORVV, isa.OpVANDVV:
		vl := s.CSRVal(isa.CSRVl)
		for l := 0; l < int(vl) && l < 4; l++ {
			a, b := s.VReg[in.Rs1][l], s.VReg[in.Rs2][l]
			var r uint64
			switch in.Op {
			case isa.OpVADDVV:
				r = a + b
			case isa.OpVXORVV:
				r = a ^ b
			default:
				r = a & b
			}
			m.SetVRegLane(int(in.Rd), l, r)
		}
		ex.WroteVec, ex.Wdest, ex.VData = true, in.Rd, s.VReg[in.Rd]
		ex.Vec, ex.Vl = true, vl
		m.resetVstart()
	case isa.OpVMVVX:
		vl := s.CSRVal(isa.CSRVl)
		for l := 0; l < int(vl) && l < 4; l++ {
			m.SetVRegLane(int(in.Rd), l, rs1)
		}
		ex.WroteVec, ex.Wdest, ex.VData = true, in.Rd, s.VReg[in.Rd]
		ex.Vec, ex.Vl = true, vl
		m.resetVstart()
	case isa.OpVLE:
		addr := (rs1 + uint64(in.Imm)) & PhysMask
		vl := s.CSRVal(isa.CSRVl)
		for l := 0; l < int(vl) && l < 4; l++ {
			v, _ := m.LoadMem(addr+uint64(l)*8, 8)
			m.SetVRegLane(int(in.Rd), l, v)
		}
		ex.WroteVec, ex.Wdest, ex.VData = true, in.Rd, s.VReg[in.Rd]
		ex.Mem, ex.IsLoad, ex.MemAddr, ex.MemSize = true, true, addr, int(vl)*8
		ex.Vec, ex.Vl = true, vl
		m.resetVstart()
	case isa.OpVSE:
		addr := (rs1 + uint64(in.Imm)) & PhysMask
		vl := s.CSRVal(isa.CSRVl)
		for l := 0; l < int(vl) && l < 4; l++ {
			m.StoreMem(addr+uint64(l)*8, 8, s.VReg[in.Rs2][l])
		}
		ex.Mem, ex.MemAddr, ex.MemSize = true, addr, int(vl)*8
		ex.VData = s.VReg[in.Rs2]
		ex.Vec, ex.Vl = true, vl
		m.resetVstart()

	case isa.OpHLVD:
		addr := (rs1 + uint64(in.Imm)) & PhysMask
		if s.CSRVal(isa.CSRHgatp) == 0 {
			raise(isa.ExcGuestLoadPageFault, addr)
			next = m.State.PC
		} else {
			v, mmio := m.LoadMem(addr, 8)
			writeInt(v)
			ex.Mem, ex.IsLoad, ex.MemAddr, ex.MemSize, ex.MemData, ex.MMIO = true, true, addr, 8, v, mmio
		}
	case isa.OpHSVD:
		addr := (rs1 + uint64(in.Imm)) & PhysMask
		if s.CSRVal(isa.CSRHgatp) == 0 {
			raise(isa.ExcGuestStorePageFault, addr)
			next = m.State.PC
		} else {
			mmio := m.StoreMem(addr, 8, rs2)
			ex.Mem, ex.MemAddr, ex.MemSize, ex.MemData, ex.MMIO = true, addr, 8, rs2, mmio
		}
	}

	if !ex.Exception {
		m.SetPC(next)
	}
	ex.NextPC = m.State.PC
	m.InstrRet++
	m.runHook(ex)
	return *ex
}

func (m *Machine) resetVstart() {
	if old := m.State.CSRVal(isa.CSRVstart); old != 0 {
		m.SetCSRAddr(isa.CSRVstart, 0)
	}
}

func (m *Machine) runHook(ex *Exec) {
	if m.Hooks.AfterExec != nil {
		m.Hooks.AfterExec(m, ex)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func sext32(v uint32) uint64 { return uint64(int64(int32(v))) }

func mulh(a, b uint64) uint64 {
	hi, _ := bits.Mul64(a, b)
	if int64(a) < 0 {
		hi -= b
	}
	if int64(b) < 0 {
		hi -= a
	}
	return hi
}

func mulhsu(a, b uint64) uint64 {
	hi, _ := bits.Mul64(a, b)
	if int64(a) < 0 {
		hi -= b
	}
	return hi
}

func divS(a, b int64) int64 {
	switch {
	case b == 0:
		return -1
	case a == math.MinInt64 && b == -1:
		return math.MinInt64
	}
	return a / b
}

func divU(a, b uint64) uint64 {
	if b == 0 {
		return ^uint64(0)
	}
	return a / b
}

func remS(a, b int64) int64 {
	switch {
	case b == 0:
		return a
	case a == math.MinInt64 && b == -1:
		return 0
	}
	return a % b
}

func remU(a, b uint64) uint64 {
	if b == 0 {
		return a
	}
	return a % b
}
