package pca

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"keystoneml/internal/engine"
	"keystoneml/internal/linalg"
)

// goldenInput is a fixed-seed input over three uneven partitions: twelve
// features of growing scale, a mean offset on the first and a constant
// last feature (zero once centred).
func goldenInput() *engine.Collection {
	rng := linalg.NewRNG(40)
	const d = 12
	sizes := []int{23, 41, 30}
	parts := make([][]any, len(sizes))
	for p, m := range sizes {
		for i := 0; i < m; i++ {
			x := rng.GaussianVector(d)
			for j := range x {
				x[j] *= float64(j + 1)
			}
			x[0] += 5
			x[d-1] = 1.5
			parts[p] = append(parts[p], x)
		}
	}
	return engine.FromPartitions(parts)
}

// The Float64bits of P and Mean that DistTSVD and LocalTSVD (K 3, two
// power iterations, seed 7) fit on goldenInput, recorded before the
// range finders factored in place: reusing buffers must not move a bit.
var (
	distP = []uint64{
		0x3f820b75d9d00f7a, 0xbf7c830b072e566f, 0x3f96d623bea82288, 0xbf8e5bdbe1777ac8,
		0xbf833ea0d53b498d, 0x3fa215d45f14d622, 0x3f9ca2358c67ae80, 0xbfaaef9fc53d1978,
		0x3fb3d283d0ae5be0, 0xbfb107e36b48fcdf, 0xbfba339b0d3e197e, 0xbfb4d059d88dcd20,
		0xbfb30975097626c4, 0x3fb19fce066fc5b3, 0xbfb9e680dc3690e4, 0xbfbb11228aa3fca0,
		0xbfc6ba2a9f62eb23, 0xbfb86d0677e319ef, 0x3f61df5cfe1de174, 0xbfc1c13edce68260,
		0x3fce7a8875ec60c0, 0xbfac15f172082512, 0xbfd1da9214c05229, 0x3fb763f974bb3c7a,
		0x3faba0e9d63400b2, 0xbfea0104332ab449, 0x3fda0fbeb74ad42f, 0xbfd084107092cdf1,
		0xbfdb4a6424870abc, 0xbfea17b57f45a189, 0x3fee725036511cf2, 0xbfbaf9dcf82782d8,
		0xbfd10088c2982c50, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
	}
	distMean = []uint64{
		0x4013d65265b9410a, 0xbfd278863691b6b8, 0xbfcbe54df6528150, 0x3fe85b29854e5db8,
		0x3fb2a7bf4093b6f6, 0xbfe2c936a86bbe01, 0x3fe0159f560e232d, 0xbff61acc634e6bda,
		0x3faca5ddfa3b0e2e, 0x3feaf7f685f8ef2c, 0x3fe07f142a50133f, 0x3ff8000000000000,
	}
	localP = []uint64{
		0xbf820b75d9d01bc8, 0xbf7c830b072e3b73, 0xbf96d623bea82473, 0x3f8e5bdbe17752fa,
		0xbf833ea0d53b4cc1, 0xbfa215d45f14d396, 0xbf9ca2358c67e2fc, 0xbfaaef9fc53d05e5,
		0xbfb3d283d0ae58f5, 0x3fb107e36b48e3dd, 0xbfba339b0d3e32a7, 0x3fb4d059d88da7d9,
		0x3fb309750976380e, 0x3fb19fce066faa5d, 0x3fb9e680dc368fce, 0x3fbb11228aa3cfa4,
		0xbfc6ba2a9f62fcbd, 0x3fb86d0677e3214a, 0xbf61df5cfe22c7f4, 0xbfc1c13edce67603,
		0xbfce7a8875ec5f0d, 0x3fac15f17207accb, 0xbfd1da9214c06276, 0xbfb763f974bb47ab,
		0xbfaba0e9d63596ab, 0xbfea0104332ab0e5, 0xbfda0fbeb74ad374, 0x3fd084107092b333,
		0xbfdb4a6424871f7a, 0x3fea17b57f45a226, 0xbfee725036512030, 0xbfbaf9dcf8263b70,
		0x3fd10088c2982bf6, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000,
	}
	localMean = []uint64{
		0x4013d65265b9410c, 0xbfd278863691b6bb, 0xbfcbe54df652814f, 0x3fe85b29854e5db8,
		0x3fb2a7bf4093b6f6, 0xbfe2c936a86bbe03, 0x3fe0159f560e232b, 0xbff61acc634e6bd7,
		0x3faca5ddfa3b0e2b, 0x3feaf7f685f8ef20, 0x3fe07f142a501341, 0x3ff8000000000000,
	}
)

// TestTSVDGoldenBits pins both randomized PCAs to the recorded bits,
// under both kernel backends and at one and three workers.
func TestTSVDGoldenBits(t *testing.T) {
	defer linalg.SetBackendMode(linalg.Mode())
	check := func(what string, got []float64, want []uint64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
		}
		for i, w := range want {
			if b := math.Float64bits(got[i]); b != w {
				t.Errorf("%s[%d] = %#016x, want %#016x", what, i, b, w)
			}
		}
	}
	for _, mode := range []linalg.BackendMode{linalg.ModeReference, linalg.ModeBlocked} {
		linalg.SetBackendMode(mode)
		for _, workers := range []int{1, 3} {
			ctx := engine.NewContext(workers)
			at := fmt.Sprintf("mode %d, %d workers", mode, workers)
			dist := (&DistTSVD{K: 3, Iters: 2, Seed: 7}).Fit(ctx, fetchOf(goldenInput()), nil).(*Projection)
			check("DistTSVD P, "+at, dist.P.Data, distP)
			check("DistTSVD Mean, "+at, dist.Mean, distMean)
			local := (&LocalTSVD{K: 3, Iters: 2, Seed: 7}).Fit(ctx, fetchOf(goldenInput()), nil).(*Projection)
			check("LocalTSVD P, "+at, local.P.Data, localP)
			check("LocalTSVD Mean, "+at, local.Mean, localMean)
		}
	}
}

// TestDistTSVDFitAllocBound: the range finder keeps one n x p product,
// factored in place, and one Householder scratch of about the same size,
// so a fit allocates less than three n x p matrices beyond its input.
// Collecting each product row by row and cloning it for every QR takes
// several per power iteration.
func TestDistTSVDFitAllocBound(t *testing.T) {
	const n, d, k = 4000, 32, 4
	p := k + 8
	data := lowRankData(12, n, d, 6, 0.1)
	est := &DistTSVD{K: k, Seed: 3}
	ctx := engine.NewContext(2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	est.Fit(ctx, fetchOf(data), nil)
	runtime.ReadMemStats(&after)
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(3*n*p*8); got >= bound {
		t.Errorf("DistTSVD.Fit allocated %d bytes, want < 3·n·p·8 = %d", got, bound)
	}
}

// badAt returns goldenInput with one record of partition 2 replaced by a
// value that is not a []float64.
func badAt() *engine.Collection {
	c := goldenInput()
	parts := make([][]any, c.NumPartitions())
	for i := range parts {
		parts[i] = append([]any(nil), c.Partition(i)...)
	}
	parts[2][7] = "not a vector"
	return engine.FromPartitions(parts)
}

// recovered runs fn and returns what it panicked with.
func recovered(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// TestDistPCABadRecordIsRecoverable: a bad record in a later partition
// fails the distributed fits with a panic on the caller's goroutine, not
// a crash in a worker's. The partition loops are each checked directly
// too, since the fits' column means reach the bad record first.
func TestDistPCABadRecordIsRecoverable(t *testing.T) {
	ctx := engine.NewContext(3)
	bad := badAt()
	offsets := rowOffsets(bad)
	mean := make([]float64, 12)
	m := linalg.NewMatrix(12, 4)
	for name, fn := range map[string]func(){
		"DistSVD":      func() { (&DistSVD{K: 3}).Fit(ctx, fetchOf(bad), nil) },
		"DistTSVD":     func() { (&DistTSVD{K: 3}).Fit(ctx, fetchOf(bad), nil) },
		"mulCentered":  func() { mulCentered(ctx, bad, offsets, m, mean, linalg.NewMatrix(bad.Count(), 4)) },
		"tMulCentered": func() { tMulCentered(ctx, bad, offsets, linalg.NewMatrix(bad.Count(), 4), mean) },
	} {
		r := recovered(fn)
		if s, ok := r.(string); !ok || !strings.Contains(s, "engine: worker panic") {
			t.Errorf("%s: panicked with %v, want the engine's worker panic", name, r)
		}
	}
}

// TestDistPCAStopsWhenCanceled: the distributed fits' partition loops
// are the engine's, so a canceled context stops them with *Canceled.
func TestDistPCAStopsWhenCanceled(t *testing.T) {
	cancelCtx, cancel := context.WithCancel(context.Background())
	cancel()
	ctx := engine.NewContext(2).WithCancellation(cancelCtx)
	data := goldenInput()
	offsets := rowOffsets(data)
	q := linalg.NewMatrix(data.Count(), 4)
	for name, fn := range map[string]func(){
		"DistSVD":      func() { (&DistSVD{K: 3}).Fit(ctx, fetchOf(data), nil) },
		"DistTSVD":     func() { (&DistTSVD{K: 3}).Fit(ctx, fetchOf(data), nil) },
		"tMulCentered": func() { tMulCentered(ctx, data, offsets, q, make([]float64, 12)) },
	} {
		r := recovered(fn)
		if err, ok := r.(error); !ok || !errors.Is(err, context.Canceled) {
			t.Errorf("%s: panicked with %v, want *engine.Canceled", name, r)
		}
	}
}

// BenchmarkDistTSVDFit is one DistTSVD fit at the shape of the vision
// pipeline's descriptor PCA: 25 000 descriptors of 128 dimensions over
// four partitions, k = 12.
func BenchmarkDistTSVDFit(b *testing.B) {
	const n, d, k, parts = 25_000, 128, 12, 4
	rng := linalg.NewRNG(9)
	items := make([]any, n)
	for i := range items {
		items[i] = rng.GaussianVector(d)
	}
	data := engine.FromSlice(items, parts)
	ctx := engine.NewContext(0)
	est := &DistTSVD{K: k, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.Fit(ctx, fetchOf(data), nil)
	}
}
