package cluster

import (
	"math"
	"testing"
)

func TestR3Descriptor(t *testing.T) {
	r := R3_4XLarge(16)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.Nodes != 16 || r.CoresPerNode != 8 {
		t.Errorf("descriptor wrong: %v", r)
	}
}

func TestValidate(t *testing.T) {
	bad := []Resources{
		{Nodes: 0, GFLOPs: 1, NetBandwidthGB: 1, MemBandwidthGB: 1},
		{Nodes: 1, GFLOPs: 0, NetBandwidthGB: 1, MemBandwidthGB: 1},
		{Nodes: 1, GFLOPs: 1, NetBandwidthGB: 0, MemBandwidthGB: 1},
		{Nodes: 1, GFLOPs: 1, NetBandwidthGB: 1, MemBandwidthGB: 0},
	}
	for i, r := range bad {
		if r.Validate() == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestWeights(t *testing.T) {
	r := R3_4XLarge(4)
	// 90 GFLOP/s -> ~1.1e-11 s per FLOP.
	if w := r.ExecWeight(); w <= 0 || w > 1e-9 {
		t.Errorf("ExecWeight = %g", w)
	}
	if w := r.CoordWeight(); w <= 0 || w > 1e-8 {
		t.Errorf("CoordWeight = %g", w)
	}
}

func TestMicrobenchmarksPlausible(t *testing.T) {
	mb := RunMicrobenchmarks()
	if mb.Cores < 1 {
		t.Errorf("cores = %d", mb.Cores)
	}
	if mb.GFLOPs <= 0 || mb.GFLOPs > 10000 {
		t.Errorf("implausible GFLOPs %g", mb.GFLOPs)
	}
	if mb.MemBandwidthGB <= 0 || mb.MemBandwidthGB > 10000 {
		t.Errorf("implausible memory bandwidth %g", mb.MemBandwidthGB)
	}
	// Cached: second call returns the identical measurement.
	mb2 := RunMicrobenchmarks()
	if mb2.GFLOPs != mb.GFLOPs || mb2.MemBandwidthGB != mb.MemBandwidthGB || len(mb2.KernelProbes) != len(mb.KernelProbes) {
		t.Error("microbenchmarks not cached")
	}
}

func TestKernelProbesAndCrossover(t *testing.T) {
	mb := RunMicrobenchmarks()
	ops := map[string]int{}
	for _, p := range mb.KernelProbes {
		ops[p.Op]++
		if p.ReferenceSec <= 0 || p.BlockedSec <= 0 || p.Flops <= 0 {
			t.Errorf("implausible probe %+v", p)
		}
	}
	if ops["gemm"] < 3 || ops["gemv"] < 2 || ops["axpy"] < 2 {
		t.Errorf("missing probe coverage: %v", ops)
	}
	c := DeriveCrossover(mb.KernelProbes)
	if c.GemmFlops < 0 || math.IsNaN(c.GemmFlops) {
		t.Errorf("bad gemm threshold %g", c.GemmFlops)
	}
}

func TestDeriveCrossoverRules(t *testing.T) {
	// Blocked never wins: threshold +Inf.
	c := DeriveCrossover([]KernelProbe{
		{Op: "gemm", Flops: 100, ReferenceSec: 1, BlockedSec: 2},
		{Op: "gemm", Flops: 1e6, ReferenceSec: 1, BlockedSec: 2},
	})
	if !math.IsInf(c.GemmFlops, 1) {
		t.Errorf("all-reference threshold = %g, want +Inf", c.GemmFlops)
	}
	// Blocked wins everywhere: threshold 0.
	c = DeriveCrossover([]KernelProbe{
		{Op: "gemm", Flops: 100, ReferenceSec: 2, BlockedSec: 1},
		{Op: "gemm", Flops: 1e6, ReferenceSec: 2, BlockedSec: 1},
	})
	if c.GemmFlops != 0 {
		t.Errorf("all-blocked threshold = %g, want 0", c.GemmFlops)
	}
	// Split: geometric midpoint between the ref win and the blocked win.
	c = DeriveCrossover([]KernelProbe{
		{Op: "gemm", Flops: 1e4, ReferenceSec: 1, BlockedSec: 2},
		{Op: "gemm", Flops: 1e6, ReferenceSec: 2, BlockedSec: 1},
	})
	if c.GemmFlops != 1e5 {
		t.Errorf("split threshold = %g, want 1e5", c.GemmFlops)
	}
	// Absent op class: +Inf (never dispatch on unmeasured data).
	if !math.IsInf(c.GemvFlops, 1) || !math.IsInf(c.VecFlops, 1) {
		t.Errorf("unmeasured classes should be +Inf, got %g / %g", c.GemvFlops, c.VecFlops)
	}
}

func TestLocalDescriptor(t *testing.T) {
	r := Local(4)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.Nodes != 4 {
		t.Errorf("nodes = %d", r.Nodes)
	}
}
