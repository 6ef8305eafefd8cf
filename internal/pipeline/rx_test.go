package pipeline

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/isa"
)

// rxOp builds an RX compute: dst ← src1 op mem[src2-base + addr].
func rxOp(pc uint64, dst, src1, base isa.Reg, addr uint64) isa.Instruction {
	return isa.Instruction{
		PC: pc, Class: isa.RX,
		Dst: dst, Src1: src1, Src2: base, Addr: addr,
	}
}

func TestRXHeadBlocksOnMemoryOperand(t *testing.T) {
	// A stream of RX ops to missing lines: each must wait for its
	// memory operand at issue (in-order), unlike pure loads which
	// issue through. RX-heavy missing code is therefore far slower
	// than the same access pattern via non-consumed loads.
	mk := func(class isa.Class) []isa.Instruction {
		ins := make([]isa.Instruction, 60)
		for i := range ins {
			addr := 0x4000_0000 + uint64(i)<<21
			if class == isa.RX {
				ins[i] = rxOp(uint64(0x1000+4*i), isa.Reg(i%8), isa.Reg(i%8), isa.RegNone, addr)
			} else {
				ins[i] = isa.Instruction{
					PC: uint64(0x1000 + 4*i), Class: isa.Load,
					Dst: isa.Reg(i % 8), Src1: isa.RegNone, Src2: isa.RegNone,
					Addr: addr,
				}
			}
		}
		return ins
	}
	run := func(class isa.Class) *Result {
		cfg := idealConfig(10)
		cfg.Hierarchy = cache.DefaultHierarchy()
		cfg.NonBlockingCache = true // isolate the issue-side effect
		return mustRun(t, cfg, mk(class))
	}
	loads := run(isa.Load)
	rx := run(isa.RX)
	if rx.RXCount != 60 || loads.LoadCount != 60 {
		t.Fatalf("counts: rx=%d loads=%d", rx.RXCount, loads.LoadCount)
	}
	if rx.Cycles < loads.Cycles*2 {
		t.Errorf("RX stream %d cycles not well above load stream %d", rx.Cycles, loads.Cycles)
	}
	if rx.StallCycles[StallMemory]+rx.StallCycles[StallAgen] == 0 {
		t.Error("RX recorded no memory-side stalls")
	}
}

func TestRXResultForwardsLikeALU(t *testing.T) {
	// Once its operands arrive, an RX result forwards in one cycle: a
	// consumer chain of RX-hit + RR pairs runs without long stalls.
	var ins []isa.Instruction
	for i := 0; i < 200; i++ {
		ins = append(ins,
			rxOp(uint64(0x1000+8*i), 1, 2, isa.RegNone, 0x1000_0000), // always the same hot line
			isa.Instruction{PC: uint64(0x1004 + 8*i), Class: isa.RR,
				Dst: 2, Src1: 1, Src2: isa.RegNone},
		)
	}
	cfg := idealConfig(10)
	cfg.Hierarchy = cache.DefaultHierarchy()
	r := mustRun(t, cfg, ins)
	// The serial RX→RR→RX chain costs ≈ the address-path latency per
	// RX (its memory operand re-traverses agen+cache each iteration);
	// the test bounds it to rule out pathological serialization.
	perPair := float64(r.Cycles) / 200
	if perPair > 16 {
		t.Errorf("RX→RR chain costs %.1f cycles per pair at depth 10", perPair)
	}
}

func TestRXSelfBaseNoDeadlock(t *testing.T) {
	// RX r5 ← r5 op mem[r5]: base captured at decode exit must see the
	// prior writer in both modes.
	ins := []isa.Instruction{
		{PC: 0x1000, Class: isa.RR, Dst: 5, Src1: isa.RegNone, Src2: isa.RegNone},
		rxOp(0x1004, 5, 5, 5, 0x1000_0000),
		{PC: 0x1008, Class: isa.RR, Dst: 6, Src1: 5, Src2: isa.RegNone},
	}
	for _, ooo := range []bool{false, true} {
		cfg := idealConfig(10)
		cfg.OutOfOrder = ooo
		r := mustRun(t, cfg, ins)
		if r.Instructions != 3 {
			t.Fatalf("ooo=%v: retired %d of 3", ooo, r.Instructions)
		}
	}
}

func TestRXWorksAtAllDepthsAndModes(t *testing.T) {
	var ins []isa.Instruction
	for i := 0; i < 400; i++ {
		switch i % 3 {
		case 0:
			ins = append(ins, rxOp(uint64(0x1000+4*i), isa.Reg(i%8), isa.Reg((i+1)%8),
				isa.Reg((i+2)%8), 0x1000_0000+uint64(i%64)*64))
		case 1:
			ins = append(ins, isa.Instruction{PC: uint64(0x1000 + 4*i), Class: isa.RR,
				Dst: isa.Reg(i % 8), Src1: isa.Reg((i + 3) % 8), Src2: isa.RegNone})
		default:
			ins = append(ins, isa.Instruction{PC: uint64(0x1000 + 4*i), Class: isa.Store,
				Dst: isa.RegNone, Src1: isa.Reg(i % 8), Src2: isa.Reg((i + 1) % 8),
				Addr: 0x1000_0000 + uint64(i%64)*64})
		}
	}
	for _, depth := range []int{2, 3, 7, 25} {
		for _, ooo := range []bool{false, true} {
			cfg := MustDefaultConfig(depth)
			cfg.OutOfOrder = ooo
			r := mustRun(t, cfg, ins)
			if r.Instructions != 400 {
				t.Fatalf("depth %d ooo %v: retired %d", depth, ooo, r.Instructions)
			}
		}
	}
}
