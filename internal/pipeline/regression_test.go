package pipeline

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The simulator is fully deterministic, so exact cycle counts act as a
// behavioral checksum: any engine change that alters timing — even by
// one cycle — trips this test. When a change is *intentional* (a
// modeling improvement or recalibration), regenerate the table by
// running the test with -run TestRegressionDigest -v and copying the
// printed rows.
var regressionDigest = map[string]uint64{
	"si95-gcc/d10/inorder":  15063,
	"si95-gcc/d10/ooo":      13556,
	"si95-gcc/d25/inorder":  29205,
	"oltp-bank/d10/inorder": 17794,
	"sf-swim/d10/inorder":   30548,
	"sf-swim/d2/inorder":    18615,
}

func digestKey(wl string, depth int, ooo bool) string {
	mode := "inorder"
	if ooo {
		mode = "ooo"
	}
	return fmt.Sprintf("%s/d%d/%s", wl, depth, mode)
}

func TestRegressionDigest(t *testing.T) {
	run := func(wl string, depth int, ooo bool) uint64 {
		prof, ok := workload.ByName(wl)
		if !ok {
			t.Fatalf("unknown workload %s", wl)
		}
		g := workload.MustGenerator(prof)
		cfg := MustDefaultConfig(depth)
		cfg.OutOfOrder = ooo
		r, err := Run(cfg, trace.NewLimitStream(g, 10000))
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles
	}
	cases := []struct {
		wl    string
		depth int
		ooo   bool
	}{
		{"si95-gcc", 10, false},
		{"si95-gcc", 10, true},
		{"si95-gcc", 25, false},
		{"oltp-bank", 10, false},
		{"sf-swim", 10, false},
		{"sf-swim", 2, false},
	}
	for _, c := range cases {
		key := digestKey(c.wl, c.depth, c.ooo)
		got := run(c.wl, c.depth, c.ooo)
		t.Logf("%q: %d,", key, got)
		want, ok := regressionDigest[key]
		if !ok {
			t.Errorf("missing digest entry %q (measured %d)", key, got)
			continue
		}
		if got != want {
			t.Errorf("%s: %d cycles, digest says %d — engine behaviour changed; "+
				"if intentional, update regressionDigest", key, got, want)
		}
	}
}

// TestNoDestinationRecordsRun: isa.Instruction.Validate accepts an RR,
// RX, FP or Load record whose Dst is RegNone, and a Store whose data
// register Src1 is RegNone. Such records produce or consume nothing
// through the register scoreboard, so every engine setting must run
// them to retirement — in order with and without skip-ahead (with
// identical results) and out of order — beside ordinary producers
// and consumers of the same registers.
func TestNoDestinationRecordsRun(t *testing.T) {
	var ins []isa.Instruction
	pc := uint64(0x1000)
	add := func(in isa.Instruction) {
		in.PC = pc
		pc += 4
		ins = append(ins, in)
	}
	for k := range uint64(8) {
		addr := 0x8000 + 4096*k
		add(isa.Instruction{Class: isa.Load, Addr: addr, Dst: 1, Src1: 2, Src2: isa.RegNone})
		add(isa.Instruction{Class: isa.RR, Dst: isa.RegNone, Src1: 1, Src2: isa.RegNone})
		add(isa.Instruction{Class: isa.RX, Addr: addr + 8, Dst: isa.RegNone, Src1: 1, Src2: 2})
		add(isa.Instruction{Class: isa.FP, FPLat: 4, Dst: isa.RegNone, Src1: isa.FirstFPR, Src2: isa.RegNone})
		add(isa.Instruction{Class: isa.Load, Addr: addr + 16, Dst: isa.RegNone, Src1: 1, Src2: isa.RegNone})
		add(isa.Instruction{Class: isa.Store, Addr: addr + 24, Dst: isa.RegNone, Src1: isa.RegNone, Src2: 1})
		add(isa.Instruction{Class: isa.RR, Dst: 2, Src1: 1, Src2: 2})
	}
	run := func(engine EngineKind, ooo bool) *Result {
		t.Helper()
		cfg := MustDefaultConfig(10)
		cfg.Engine, cfg.OutOfOrder = engine, ooo
		r, err := Run(cfg, trace.NewSliceStream(ins))
		if err != nil {
			t.Fatalf("engine %d ooo %v: %v", engine, ooo, err)
		}
		if r.Instructions != uint64(len(ins)) {
			t.Fatalf("engine %d ooo %v: retired %d of %d records", engine, ooo, r.Instructions, len(ins))
		}
		return r
	}
	auto, perCycle := run(EngineAuto, false), run(EnginePerCycle, false)
	if !reflect.DeepEqual(auto.Data(), perCycle.Data()) {
		t.Errorf("EngineAuto and EnginePerCycle disagree:\n auto %+v\n per-cycle %+v", auto.Data(), perCycle.Data())
	}
	run(EngineAuto, true)
}
