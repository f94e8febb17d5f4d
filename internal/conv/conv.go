// Package conv implements the convolution operator with the three
// physical strategies compared in Figure 7 of the KeystoneML paper:
// separable matrix-vector convolution, im2col + GEMM ("BLAS"), and
// FFT-based convolution, plus the cost models that drive strategy choice
// as the filter size k grows.
package conv

import (
	"fmt"
	"math/cmplx"

	"keystoneml/internal/cost"
	"keystoneml/internal/image"
	"keystoneml/internal/linalg"
)

// FilterBank is a set of b filters of size K x K applied over d input
// channels. Weights[f] is one filter stored channel-planar like images:
// Weights[f][c*K*K + y*K + x]. A convolution of an n x n x d image yields
// an m x m x b image with m = n - K + 1 (valid convolution), each output
// channel summing over input channels.
type FilterBank struct {
	K, InChannels, NumFilters int
	Weights                   [][]float64
}

// NewFilterBank allocates a zeroed bank.
func NewFilterBank(k, inChannels, numFilters int) *FilterBank {
	w := make([][]float64, numFilters)
	for i := range w {
		w[i] = make([]float64, k*k*inChannels)
	}
	return &FilterBank{K: k, InChannels: inChannels, NumFilters: numFilters, Weights: w}
}

// RandomFilterBank draws Gaussian filter weights.
func RandomFilterBank(k, inChannels, numFilters int, rng *linalg.RNG) *FilterBank {
	fb := NewFilterBank(k, inChannels, numFilters)
	for i := range fb.Weights {
		for j := range fb.Weights[i] {
			fb.Weights[i][j] = rng.Gaussian()
		}
	}
	return fb
}

// SeparableFilterBank draws rank-1 (outer product u·vᵀ) filters, the class
// the matrix-vector strategy requires.
func SeparableFilterBank(k, inChannels, numFilters int, rng *linalg.RNG) *FilterBank {
	fb := NewFilterBank(k, inChannels, numFilters)
	for f := 0; f < numFilters; f++ {
		for c := 0; c < inChannels; c++ {
			u := rng.GaussianVector(k)
			v := rng.GaussianVector(k)
			for y := 0; y < k; y++ {
				for x := 0; x < k; x++ {
					fb.Weights[f][c*k*k+y*k+x] = u[y] * v[x]
				}
			}
		}
	}
	return fb
}

// IsSeparable reports whether every filter channel is (numerically)
// rank 1, the precondition for the separable strategy.
func (fb *FilterBank) IsSeparable() bool {
	for f := 0; f < fb.NumFilters; f++ {
		for c := 0; c < fb.InChannels; c++ {
			if _, _, ok := fb.separate(f, c); !ok {
				return false
			}
		}
	}
	return true
}

// separate factors filter (f, c) into u vᵀ via SVD, returning ok=false if
// the second singular value is non-negligible.
func (fb *FilterBank) separate(f, c int) (u, v []float64, ok bool) {
	k := fb.K
	m := linalg.NewMatrix(k, k)
	copy(m.Data, fb.Weights[f][c*k*k:(c+1)*k*k])
	sv := linalg.SVD(m)
	if len(sv.S) > 1 && sv.S[1] > 1e-9*sv.S[0] {
		return nil, nil, false
	}
	u = make([]float64, k)
	v = make([]float64, k)
	for i := 0; i < k; i++ {
		u[i] = sv.U.At(i, 0) * sv.S[0]
		v[i] = sv.V.At(i, 0)
	}
	return u, v, true
}

// Strategy is one physical convolution implementation.
type Strategy interface {
	Name() string
	Convolve(im *image.Image, fb *FilterBank) *image.Image
}

func checkDims(im *image.Image, fb *FilterBank) int {
	if im.Channels != fb.InChannels {
		panic(fmt.Sprintf("conv: image has %d channels, bank expects %d", im.Channels, fb.InChannels))
	}
	m := im.Width - fb.K + 1
	if m <= 0 || im.Height-fb.K+1 <= 0 {
		panic(fmt.Sprintf("conv: filter %d larger than image %dx%d", fb.K, im.Width, im.Height))
	}
	return m
}

// Direct is the naive quadruple loop; not one of the paper's candidates
// but the oracle the strategies are tested against.
type Direct struct{}

// Name implements Strategy.
func (Direct) Name() string { return "conv.direct" }

// Convolve implements Strategy.
func (Direct) Convolve(im *image.Image, fb *FilterBank) *image.Image {
	checkDims(im, fb)
	k := fb.K
	mw := im.Width - k + 1
	mh := im.Height - k + 1
	out := image.New(mw, mh, fb.NumFilters)
	for f := 0; f < fb.NumFilters; f++ {
		dst := out.Plane(f)
		for c := 0; c < im.Channels; c++ {
			src := im.Plane(c)
			w := fb.Weights[f][c*k*k : (c+1)*k*k]
			for y := 0; y < mh; y++ {
				for x := 0; x < mw; x++ {
					var s float64
					for dy := 0; dy < k; dy++ {
						row := src[(y+dy)*im.Width+x:]
						wrow := w[dy*k:]
						for dx := 0; dx < k; dx++ {
							s += row[dx] * wrow[dx]
						}
					}
					dst[y*mw+x] += s
				}
			}
		}
	}
	return out
}

// Separable is the matrix-vector scheme: each rank-1 filter u·vᵀ is
// applied as a horizontal pass with v followed by a vertical pass with u,
// costing O(d·b·k·m²) instead of O(d·b·k²·m²). It panics if a filter is
// not separable; the optimizer only selects it when IsSeparable holds.
type Separable struct{}

// Name implements Strategy.
func (Separable) Name() string { return "conv.separable" }

// Convolve implements Strategy.
func (Separable) Convolve(im *image.Image, fb *FilterBank) *image.Image {
	checkDims(im, fb)
	k := fb.K
	mw := im.Width - k + 1
	mh := im.Height - k + 1
	out := image.New(mw, mh, fb.NumFilters)
	tmp := make([]float64, mw*im.Height)
	for f := 0; f < fb.NumFilters; f++ {
		dst := out.Plane(f)
		for c := 0; c < im.Channels; c++ {
			u, v, ok := fb.separate(f, c)
			if !ok {
				panic(fmt.Sprintf("conv: filter (%d,%d) is not separable", f, c))
			}
			src := im.Plane(c)
			// Horizontal pass with v: tmp is mw x H.
			for y := 0; y < im.Height; y++ {
				for x := 0; x < mw; x++ {
					var s float64
					row := src[y*im.Width+x:]
					for dx := 0; dx < k; dx++ {
						s += row[dx] * v[dx]
					}
					tmp[y*mw+x] = s
				}
			}
			// Vertical pass with u.
			for y := 0; y < mh; y++ {
				for x := 0; x < mw; x++ {
					var s float64
					for dy := 0; dy < k; dy++ {
						s += tmp[(y+dy)*mw+x] * u[dy]
					}
					dst[y*mw+x] += s
				}
			}
		}
	}
	return out
}

// BLAS is the im2col + GEMM scheme: patches are unrolled into a
// (m²) x (d·k²) matrix and multiplied by the (d·k²) x b filter matrix,
// costing O(d·b·k²·m²) but with GEMM's cache behaviour — the Figure 7
// winner for small k.
type BLAS struct{}

// Name implements Strategy.
func (BLAS) Name() string { return "conv.blas" }

// Convolve implements Strategy.
func (BLAS) Convolve(im *image.Image, fb *FilterBank) *image.Image {
	checkDims(im, fb)
	k := fb.K
	mw := im.Width - k + 1
	mh := im.Height - k + 1
	d := im.Channels
	cols := d * k * k
	patches := linalg.NewMatrix(mw*mh, cols)
	for y := 0; y < mh; y++ {
		for x := 0; x < mw; x++ {
			row := patches.Row(y*mw + x)
			idx := 0
			for c := 0; c < d; c++ {
				src := im.Plane(c)
				for dy := 0; dy < k; dy++ {
					base := (y+dy)*im.Width + x
					copy(row[idx:idx+k], src[base:base+k])
					idx += k
				}
			}
		}
	}
	filt := linalg.NewMatrix(cols, fb.NumFilters)
	for f := 0; f < fb.NumFilters; f++ {
		for i := 0; i < cols; i++ {
			filt.Set(i, f, fb.Weights[f][i])
		}
	}
	prod := patches.Mul(filt) // (m²) x b
	out := image.New(mw, mh, fb.NumFilters)
	for f := 0; f < fb.NumFilters; f++ {
		dst := out.Plane(f)
		for i := 0; i < mw*mh; i++ {
			dst[i] = prod.At(i, f)
		}
	}
	return out
}

// FFT convolves in the frequency domain: O(d·b·n²·log n) independent of
// k, the Figure 7 winner for large filters.
type FFT struct{}

// Name implements Strategy.
func (FFT) Name() string { return "conv.fft" }

// Convolve implements Strategy.
func (FFT) Convolve(im *image.Image, fb *FilterBank) *image.Image {
	checkDims(im, fb)
	k := fb.K
	mw := im.Width - k + 1
	mh := im.Height - k + 1
	pw := linalg.NextPow2(im.Width)
	ph := linalg.NextPow2(im.Height)
	// Transform every input channel once.
	chanF := make([][]complex128, im.Channels)
	for c := 0; c < im.Channels; c++ {
		buf := make([]complex128, pw*ph)
		src := im.Plane(c)
		for y := 0; y < im.Height; y++ {
			for x := 0; x < im.Width; x++ {
				buf[y*pw+x] = complex(src[y*im.Width+x], 0)
			}
		}
		linalg.FFT2D(buf, ph, pw, false)
		chanF[c] = buf
	}
	out := image.New(mw, mh, fb.NumFilters)
	acc := make([]complex128, pw*ph)
	fbuf := make([]complex128, pw*ph)
	for f := 0; f < fb.NumFilters; f++ {
		for i := range acc {
			acc[i] = 0
		}
		for c := 0; c < im.Channels; c++ {
			for i := range fbuf {
				fbuf[i] = 0
			}
			w := fb.Weights[f][c*k*k : (c+1)*k*k]
			// Correlation (to match the direct strategy) = convolution with
			// the filter conjugate-reversed; place the filter directly and
			// take conj of its FFT.
			for y := 0; y < k; y++ {
				for x := 0; x < k; x++ {
					fbuf[y*pw+x] = complex(w[y*k+x], 0)
				}
			}
			linalg.FFT2D(fbuf, ph, pw, false)
			cf := chanF[c]
			for i := range acc {
				acc[i] += cf[i] * cmplx.Conj(fbuf[i])
			}
		}
		linalg.FFT2D(acc, ph, pw, true)
		dst := out.Plane(f)
		for y := 0; y < mh; y++ {
			for x := 0; x < mw; x++ {
				dst[y*mw+x] = real(acc[y*pw+x])
			}
		}
	}
	return out
}

// Convolver is the logical convolution Transformer (Image -> Image); it
// is Optimizable over the three Figure 7 strategies. The default
// (unoptimized) implementation is BLAS.
type Convolver struct {
	Bank     *FilterBank
	Strategy Strategy // nil = BLAS
}

// Name implements core.TransformOp.
func (c *Convolver) Name() string { return "image.convolve[logical]" }

// Apply implements core.TransformOp.
func (c *Convolver) Apply(in any) any {
	im, ok := in.(*image.Image)
	if !ok {
		panic(fmt.Sprintf("conv: expected *image.Image, got %T", in))
	}
	s := c.Strategy
	if s == nil {
		s = BLAS{}
	}
	return s.Convolve(im, c.Bank)
}

// Options implements core.Optimizable: each strategy bound to this bank
// with its cost model; the separable strategy is offered only if the bank
// is actually separable.
func (c *Convolver) Options() []cost.Option {
	opts := []cost.Option{
		{Model: blasCost{bank: c.Bank}, Operator: &boundStrategy{bank: c.Bank, s: BLAS{}}},
		{Model: fftCost{bank: c.Bank}, Operator: &boundStrategy{bank: c.Bank, s: FFT{}}},
	}
	if c.Bank.IsSeparable() {
		opts = append(opts, cost.Option{
			Model:    separableCost{bank: c.Bank},
			Operator: &boundStrategy{bank: c.Bank, s: Separable{}},
		})
	}
	return opts
}

// boundStrategy is a physical convolution operator: one strategy bound to
// one filter bank.
type boundStrategy struct {
	bank *FilterBank
	s    Strategy
}

// Name implements core.TransformOp.
func (b *boundStrategy) Name() string { return b.s.Name() }

// Apply implements core.TransformOp.
func (b *boundStrategy) Apply(in any) any {
	return b.s.Convolve(in.(*image.Image), b.bank)
}

// The Figure 7 cost models (per record, image n x n x d, b filters of
// size k): the optimizer multiplies by record count via DataStats.N.
// Effective-FLOP multipliers encode how far each strategy runs from peak:
// GEMM is cache-optimal (1x), the separable two-pass scheme is strided and
// memory-bound (4x), FFT butterflies are latency-bound complex arithmetic
// (3x). These constants are what make BLAS the measured winner at small k
// in Figure 7 despite its worse asymptotics.
const (
	sepEfficiency = 4.0
	fftEfficiency = 3.0
)

type separableCost struct{ bank *FilterBank }

func (separableCost) Name() string { return "conv.separable" }

func (c separableCost) Cost(st cost.DataStats, workers int) cost.Profile {
	n := pixelEdge(st, c.bank)
	k := float64(c.bank.K)
	d := float64(c.bank.InChannels)
	b := float64(c.bank.NumFilters)
	m := n - k + 1
	w := float64(max(workers, 1))
	return cost.Profile{
		Flops: float64(st.N) * sepEfficiency * (2*d*b*k*m*m + b*k*k*k) / w,
		Bytes: float64(st.N) * d * n * n * 8 / w,
	}
}

type blasCost struct{ bank *FilterBank }

func (blasCost) Name() string { return "conv.blas" }

func (c blasCost) Cost(st cost.DataStats, workers int) cost.Profile {
	n := pixelEdge(st, c.bank)
	k := float64(c.bank.K)
	d := float64(c.bank.InChannels)
	b := float64(c.bank.NumFilters)
	m := n - k + 1
	w := float64(max(workers, 1))
	return cost.Profile{
		Flops: float64(st.N) * 2 * d * b * k * k * m * m / w,
		Bytes: float64(st.N) * d * k * k * m * m * 8 / w,
	}
}

type fftCost struct{ bank *FilterBank }

func (fftCost) Name() string { return "conv.fft" }

func (c fftCost) Cost(st cost.DataStats, workers int) cost.Profile {
	n := float64(linalg.NextPow2(int(pixelEdge(st, c.bank))))
	d := float64(c.bank.InChannels)
	b := float64(c.bank.NumFilters)
	w := float64(max(workers, 1))
	log2n := 0.0
	for p := 1.0; p < n; p *= 2 {
		log2n++
	}
	return cost.Profile{
		Flops: float64(st.N) * fftEfficiency * (6*d*b*n*n*log2n + 4*d*b*n*n) / w,
		Bytes: float64(st.N) * d * b * n * n * 16 / w,
	}
}

// pixelEdge infers the square image edge length n from the per-record
// scalar count reported by the profiler (Dim = n·n·channels).
func pixelEdge(st cost.DataStats, bank *FilterBank) float64 {
	if st.Dim <= 0 {
		return float64(bank.K)
	}
	perChan := float64(st.Dim) / float64(bank.InChannels)
	edge := 1.0
	for edge*edge < perChan {
		edge++
	}
	return edge
}
