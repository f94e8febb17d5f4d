package experiments

import (
	"fmt"
	"io"
	"runtime"

	"keystoneml/internal/cluster"
	"keystoneml/internal/linalg"
	"keystoneml/internal/optimizer"
	"keystoneml/internal/workload"
	"keystoneml/keystone"

	"keystoneml/internal/core"
)

// kernelRow is one reference-vs-blocked measurement at one GOMAXPROCS
// setting.
type kernelRow struct {
	Op      string
	Shape   string
	Procs   int
	RefSec  float64
	BlkSec  float64
	Speedup float64
}

// bestOfSec returns the fastest of reps timed runs of fn, in seconds.
func bestOfSec(reps int, fn func()) float64 {
	best := 0.0
	for r := 0; r < reps; r++ {
		if s := timeIt(fn).Seconds(); best == 0 || s < best {
			best = s
		}
	}
	return best
}

// withMode runs fn under the given dispatch mode, restoring the
// previous mode after.
func withMode(m linalg.BackendMode, fn func()) {
	old := linalg.Mode()
	linalg.SetBackendMode(m)
	defer linalg.SetBackendMode(old)
	fn()
}

// Kernels compares the reference and blocked linalg backends head to
// head: GEMM/TMul/QR/TruncatedSVD microbenchmarks at GOMAXPROCS 1 and
// 4, whether measured dispatch (Choose) picks the faster variant on the
// small and large probe shapes, and the end-to-end Fit delta on the
// VOC- and CIFAR-shaped pipelines.
func Kernels(w io.Writer, scale Scale) {
	header(w, "Kernel backends: reference vs blocked")
	small, large := 32, 256
	tmulN, qrM, qrN, svdM := 512, 384, 48, 192
	if scale == Full {
		large, tmulN, qrM, svdM = 512, 1024, 1024, 384
	}

	var all []kernelRow
	fmt.Fprintf(w, "%-6s %-16s %6s %12s %12s %9s\n", "op", "shape", "procs", "reference", "blocked", "speedup")
	oldProcs := runtime.GOMAXPROCS(0)
	defer func() {
		runtime.GOMAXPROCS(oldProcs)
		linalg.SetKernelParallelism(oldProcs)
	}()
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		linalg.SetKernelParallelism(procs)
		rows := measureKernelRows(procs, small, large, tmulN, qrM, qrN, svdM)
		for _, r := range rows {
			fmt.Fprintf(w, "%-6s %-16s %6d %11.2fms %11.2fms %8.2fx\n",
				r.Op, r.Shape, r.Procs, 1e3*r.RefSec, 1e3*r.BlkSec, r.Speedup)
		}
		all = append(all, rows...)
	}

	// Measured dispatch: install the probe-derived crossover and check
	// Choose against the head-to-head timings on the probe shapes.
	cluster.InstallKernelCrossover()
	var smallBlocked, largeBlocked bool
	withMode(linalg.ModeAuto, func() {
		smallBlocked = linalg.Choose(linalg.OpGemm, small, small, small).Name() == "blocked"
		largeBlocked = linalg.Choose(linalg.OpGemm, large, large, large).Name() == "blocked"
	})
	smallFaster := all[0].BlkSec < all[0].RefSec
	largeFaster := all[1].BlkSec < all[1].RefSec
	fmt.Fprintf(w, "dispatch: small=%s large=%s (matches measurement: %v)\n",
		pickName(smallBlocked), pickName(largeBlocked), smallBlocked == smallFaster && largeBlocked == largeFaster)

	// End-to-end: the same Fit under pinned reference kernels vs
	// measured Auto dispatch.
	fmt.Fprintf(w, "end-to-end fit speedup (auto vs reference): VOC %.2fx, CIFAR %.2fx\n",
		e2eSpeedup(vocSpec(scale)), e2eSpeedup(cifarSpec(scale)))
}

func pickName(blocked bool) string {
	if blocked {
		return "blocked"
	}
	return "reference"
}

// measureKernelRows times the five kernel-level probes at one
// GOMAXPROCS setting, returning rows in a fixed order: gemm small, gemm
// large, tmul, qr, tsvd.
func measureKernelRows(procs, small, large, tmulN, qrM, qrN, svdM int) []kernelRow {
	rng := linalg.NewRNG(0xbe_ac4)
	row := func(op, shape string, ref, blk float64) kernelRow {
		return kernelRow{Op: op, Shape: shape, Procs: procs, RefSec: ref, BlkSec: blk, Speedup: ref / blk}
	}
	var rows []kernelRow
	for _, size := range []int{small, large} {
		a, b := rng.GaussianMatrix(size, size), rng.GaussianMatrix(size, size)
		dst := linalg.NewMatrix(size, size)
		run := func(be linalg.Backend) float64 {
			return bestOfSec(3, func() {
				clearVec(dst.Data)
				be.Mul(dst.Data, a.Data, b.Data, size, size, size)
			})
		}
		rows = append(rows, row("gemm", fmt.Sprintf("%dx%dx%d", size, size, size),
			run(linalg.Reference()), run(linalg.Blocked())))
	}
	{
		r, m := tmulN, tmulN/2
		a, b := rng.GaussianMatrix(r, m), rng.GaussianMatrix(r, m)
		dst := linalg.NewMatrix(m, m)
		run := func(be linalg.Backend) float64 {
			return bestOfSec(3, func() {
				clearVec(dst.Data)
				be.TMul(dst.Data, a.Data, b.Data, r, m, m)
			})
		}
		rows = append(rows, row("tmul", fmt.Sprintf("%dx%dx%d", r, m, m),
			run(linalg.Reference()), run(linalg.Blocked())))
	}
	{
		a := rng.GaussianMatrix(qrM, qrN)
		run := func(m linalg.BackendMode) float64 {
			var s float64
			withMode(m, func() { s = bestOfSec(3, func() { linalg.QR(a.Clone()) }) })
			return s
		}
		rows = append(rows, row("qr", fmt.Sprintf("%dx%d", qrM, qrN),
			run(linalg.ModeReference), run(linalg.ModeBlocked)))
	}
	{
		a := rng.GaussianMatrix(svdM, svdM/3)
		run := func(m linalg.BackendMode) float64 {
			var s float64
			withMode(m, func() {
				s = bestOfSec(3, func() { linalg.TruncatedSVD(a.Clone(), 8, 2, linalg.NewRNG(77)) })
			})
			return s
		}
		rows = append(rows, row("tsvd", fmt.Sprintf("%dx%d k=8", svdM, svdM/3),
			run(linalg.ModeReference), run(linalg.ModeBlocked)))
	}
	return rows
}

func clearVec(v []float64) {
	for i := range v {
		v[i] = 0
	}
}

// vocSpec is the VOC-shaped vision workload from the Figure 9 set.
func vocSpec(scale Scale) workloadSpec { return specs(scale)[2] }

// cifarSpec is the CIFAR-shaped convolutional workload from Table 5.
func cifarSpec(scale Scale) workloadSpec {
	n := 60
	if scale == Full {
		n = 160
	}
	return workloadSpec{
		name: "CIFAR-10",
		build: func() *core.Graph {
			return graphOf(keystone.CifarPipeline(keystone.CifarConfig{NumFilters: 12, Seed: 23, Iterations: 20}).EngineGraph())
		},
		train:      workload.Images(n, 32, 3, 4, 21, 4),
		test:       workload.Images(n/2, 32, 3, 4, 22, 2),
		numClasses: 4,
	}
}

// e2eSpeedup fits one workload end to end under pinned reference
// kernels and under measured Auto dispatch, returning ref/auto total
// fit time (best of two runs each to damp scheduler noise).
func e2eSpeedup(spec workloadSpec) float64 {
	fit := func(m linalg.BackendMode) float64 {
		var s float64
		withMode(m, func() {
			s = bestOfSec(2, func() { _, _, _ = runPlan(spec, optimizer.LevelFull, 0) })
		})
		return s
	}
	cluster.InstallKernelCrossover()
	ref := fit(linalg.ModeReference)
	auto := fit(linalg.ModeAuto)
	return ref / auto
}
