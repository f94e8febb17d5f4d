package image

import (
	"fmt"
	"math"
	"sync"

	"keystoneml/internal/core"
	"keystoneml/internal/cost"
	"keystoneml/internal/engine"
	"keystoneml/internal/linalg"
)

// GrayscaleOp returns the Grayscale transformer (Table 4's GrayScale).
func GrayscaleOp() core.TransformOp {
	return core.TypedTransform("image.grayscale", Grayscale)
}

// SIFTParams configures the dense SIFT-style descriptor extractor.
type SIFTParams struct {
	// CellSize is the spatial bin edge in pixels (default 4; descriptors
	// cover 4x4 cells = 16*CellSize² pixels).
	CellSize int
	// Stride is the sampling step between descriptor centers (default 8).
	Stride int
	// Bins is the number of orientation bins (default 8, giving the
	// classic 4*4*8 = 128-dim descriptor).
	Bins int
}

func (p SIFTParams) withDefaults() SIFTParams {
	if p.CellSize <= 0 {
		p.CellSize = 4
	}
	if p.Stride <= 0 {
		p.Stride = 8
	}
	if p.Bins <= 0 {
		p.Bins = 8
	}
	return p
}

// SIFT extracts dense SIFT-style descriptors from a grayscale image: a
// grid of local gradient-orientation histograms over 4x4 cells, L2
// normalized. It is a faithful-shape substitute for Lowe's SIFT (the
// paper links against an optimized native implementation); the descriptor
// dimensionality (128) and locality structure match.
//
// Like a native dense SIFT, Apply does each piece of arithmetic once,
// however much the descriptors overlap: one border-clamped
// central-difference gradient, magnitude and orientation bin per pixel,
// one histogram per distinct cell, and each descriptor a copy of its 16
// cell histograms. A pixel whose orientation is NaN (a non-finite
// neighbourhood) adds nothing.
type SIFT struct {
	Params SIFTParams
}

// Name implements core.TransformOp.
func (s *SIFT) Name() string { return "image.sift" }

// siftScratch is one Apply call's working memory: the luminance plane
// of a multi-channel image, per-pixel magnitudes and orientation bins
// (-1 for a pixel that adds nothing), per-cell histograms, and the
// cell-origin number of each x and y coordinate.
type siftScratch struct {
	gray   []float64
	mag    []float64
	bin    []int32
	hist   []float64
	xo, yo []int32
}

// siftPool recycles siftScratch across calls: every record of a vision
// pipeline needs the same few tens of KiB.
var siftPool = sync.Pool{New: func() any { return new(siftScratch) }}

// Apply maps *Image -> [][]float64 (one descriptor per grid position),
// the descriptors capped rows of one backing array. A multi-channel
// image is converted to luminance, with Grayscale's arithmetic, in
// scratch.
//
// A histogram entry receives only its own cell's pixels, in the
// row-major order a loop over each descriptor's patch would add them,
// starting from +0; so every descriptor is, bit for bit, the one that
// loop computes.
func (s *SIFT) Apply(in any) any {
	im, ok := in.(*Image)
	if !ok {
		panic(fmt.Sprintf("image: SIFT expects *Image, got %T", in))
	}
	sc := siftPool.Get().(*siftScratch)
	defer siftPool.Put(sc)
	return s.apply(im, sc)
}

// FuseChain implements core.ChainOp. SIFT fed by image.grayscale absorbs
// it: SIFT converts a multi-channel image itself, into scratch the fused
// function owns, so the grayscale copy of each image is never made. A
// record that is not an *Image goes through the absorbed operator, whose
// panic it is.
func (s *SIFT) FuseChain(chain []core.TransformOp) (int, func() func(any) any) {
	if len(chain) == 0 || chain[len(chain)-1].Name() != "image.grayscale" {
		return 0, nil
	}
	gray := chain[len(chain)-1]
	return 1, func() func(any) any {
		sc := new(siftScratch)
		return func(in any) any {
			im, ok := in.(*Image)
			if !ok {
				return s.Apply(gray.Apply(in))
			}
			return s.apply(im, sc)
		}
	}
}

// apply is Apply on sc's memory; its result shares none of it.
func (s *SIFT) apply(im *Image, sc *siftScratch) [][]float64 {
	w, h := im.Width, im.Height
	pix := im.Pix
	if im.Channels != 1 {
		checkDims(w, h, 1) // Grayscale's panic
		pix = grow(&sc.gray, w*h)
		luminance(pix, im)
	}
	p := s.Params.withDefaults()
	cs, bins := p.CellSize, p.Bins
	patch := 4 * cs
	if w < patch || h < patch {
		return nil
	}
	nx, ny := (w-patch)/p.Stride+1, (h-patch)/p.Stride+1
	// The grid covers [0, cw) x [0, ch); scratch rows are cw wide.
	cw, ch := (nx-1)*p.Stride+patch, (ny-1)*p.Stride+patch

	mag, bin := grow(&sc.mag, cw*ch), grow(&sc.bin, cw*ch)
	for y := 0; y < ch; y++ {
		row, up, down := y*w, max(y-1, 0)*w, min(y+1, h-1)*w
		for x := 0; x < cw; x++ {
			gx := (pix[row+min(x+1, w-1)] - pix[row+max(x-1, 0)]) / 2
			gy := (pix[down+x] - pix[up+x]) / 2
			m := math.Hypot(gx, gy)
			b := int32(-1)
			if m != 0 {
				if ang := math.Atan2(gy, gx) + math.Pi; !math.IsNaN(ang) { // [0, 2π]
					bi := int(ang / (2 * math.Pi) * float64(bins))
					if bi >= bins {
						bi = bins - 1
					}
					b = int32(bi)
				}
			}
			mag[y*cw+x], bin[y*cw+x] = m, b
		}
	}

	xo, yo := grow(&sc.xo, cw), grow(&sc.yo, ch)
	ncx, ncy := cellOrigins(xo, nx, p.Stride, cs), cellOrigins(yo, ny, p.Stride, cs)
	hist := grow(&sc.hist, ncx*ncy*bins)
	clear(hist)
	for y0, yi := range yo {
		if yi < 0 {
			continue
		}
		for x0, xi := range xo {
			if xi < 0 {
				continue
			}
			hc := hist[(int(yi)*ncx+int(xi))*bins:][:bins]
			for y := y0; y < y0+cs; y++ {
				for i := y*cw + x0; i < y*cw+x0+cs; i++ {
					if b := bin[i]; b >= 0 {
						hc[b] += mag[i]
					}
				}
			}
		}
	}

	dim := 16 * bins
	descs := make([][]float64, nx*ny)
	backing := make([]float64, len(descs)*dim)
	for i := range descs {
		px, py := i%nx*p.Stride, i/nx*p.Stride
		desc := backing[i*dim : (i+1)*dim : (i+1)*dim]
		for c := 0; c < 16; c++ {
			cell := int(yo[py+c/4*cs])*ncx + int(xo[px+c%4*cs])
			copy(desc[c*bins:(c+1)*bins], hist[cell*bins:])
		}
		linalg.Normalize(desc)
		descs[i] = desc
	}
	return descs
}

// cellOrigins numbers, in ascending order, the coordinates along one
// axis where a cell starts — g*stride + c*cellSize for each of n grid
// positions g and each of a descriptor's 4 cells c — writing each
// coordinate's number into idx (-1 where no cell starts), and returns
// how many there are.
func cellOrigins(idx []int32, n, stride, cellSize int) int {
	for i := range idx {
		idx[i] = -1
	}
	for g := 0; g < n; g++ {
		for c := 0; c < 4; c++ {
			idx[g*stride+c*cellSize] = 0
		}
	}
	k := 0
	for i, v := range idx {
		if v == 0 {
			idx[i] = int32(k)
			k++
		}
	}
	return k
}

// grow returns (*buf)[:n], reallocating *buf when it is too short. The
// contents are whatever the last user left.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// LCS extracts local color statistic descriptors: per-patch per-channel
// mean and standard deviation on a dense grid, the LCS operator of the
// ImageNet pipeline.
type LCS struct {
	PatchSize int // default 6
	Stride    int // default 8
}

// Name implements core.TransformOp.
func (l *LCS) Name() string { return "image.lcs" }

// Apply maps *Image -> [][]float64.
func (l *LCS) Apply(in any) any {
	im, ok := in.(*Image)
	if !ok {
		panic(fmt.Sprintf("image: LCS expects *Image, got %T", in))
	}
	return l.descriptors(im)
}

// descriptors is Apply's typed body: one descriptor per patch, in
// row-major grid order, the descriptors capped rows of one backing array.
func (l *LCS) descriptors(im *Image) [][]float64 {
	ps := l.PatchSize
	if ps <= 0 {
		ps = 6
	}
	st := l.Stride
	if st <= 0 {
		st = 8
	}
	if im.Width < ps || im.Height < ps {
		return nil
	}
	nx, ny := (im.Width-ps)/st+1, (im.Height-ps)/st+1
	dim := 2 * im.Channels
	descs := make([][]float64, nx*ny)
	backing := make([]float64, len(descs)*dim)
	for i := range descs {
		px, py := i%nx*st, i/nx*st
		desc := backing[i*dim : (i+1)*dim : (i+1)*dim]
		for c := 0; c < im.Channels; c++ {
			var sum, sum2 float64
			for dy := 0; dy < ps; dy++ {
				for dx := 0; dx < ps; dx++ {
					v := im.At(px+dx, py+dy, c)
					sum += v
					sum2 += v * v
				}
			}
			n := float64(ps * ps)
			mean := sum / n
			desc[2*c] = mean
			desc[2*c+1] = math.Sqrt(math.Max(0, sum2/n-mean*mean))
		}
		descs[i] = desc
	}
	return descs
}

// ColumnSampler deterministically subsamples a descriptor set to at most
// N entries — the Column Sampler nodes feeding PCA and GMM in the
// Figure 5 DAG.
type ColumnSampler struct {
	N    int
	Seed uint64
}

// Name implements core.TransformOp.
func (c *ColumnSampler) Name() string { return "image.columnsample" }

// Apply maps [][]float64 -> [][]float64.
func (c *ColumnSampler) Apply(in any) any {
	descs, ok := in.([][]float64)
	if !ok {
		panic(fmt.Sprintf("image: ColumnSampler expects [][]float64, got %T", in))
	}
	if c.N <= 0 || len(descs) <= c.N {
		return descs
	}
	rng := linalg.NewRNG(c.Seed + uint64(len(descs)))
	perm := rng.Perm(len(descs))[:c.N]
	out := make([][]float64, c.N)
	for i, p := range perm {
		out[i] = descs[p]
	}
	return out
}

// Flatten maps a descriptor set to the concatenation of its descriptors —
// used where a pipeline stage needs flat vectors.
func Flatten() core.TransformOp {
	return core.TypedTransform("image.flatten", func(descs [][]float64) []float64 {
		var out []float64
		for _, d := range descs {
			out = append(out, d...)
		}
		return out
	})
}

// DescriptorPCA applies a fitted projection to every descriptor in a set
// (the ReduceDimensions stage of Figure 5 operates on descriptor sets,
// not flat vectors). When the projection has a block form
// (core.BlockOp; pca.Projection does) the whole set runs as one block:
// the descriptors packed feature-major and projected by one GEMM, which
// the block contract makes bit-identical to projecting each alone.
type DescriptorPCA struct {
	Inner core.TransformOp // a pca.Projection
}

// Name implements core.TransformOp.
func (d *DescriptorPCA) Name() string { return "image.descpca[" + d.Inner.Name() + "]" }

// blockPool recycles DescriptorPCA's packed input and output blocks.
var blockPool = sync.Pool{New: func() any { return new([]float64) }}

// Apply maps [][]float64 -> [][]float64.
func (d *DescriptorPCA) Apply(in any) any {
	descs := in.([][]float64)
	if out, ok := d.applyBlock(descs); ok {
		return out
	}
	out := make([][]float64, len(descs))
	for i, x := range descs {
		out[i] = d.Inner.Apply(x).([]float64)
	}
	return out
}

// applyBlock projects descs as one block, the outputs capped rows of one
// backing array. It reports false — leaving the per-descriptor loop to
// run, or to report the bad input — when the inner op has no block form,
// the set is empty or ragged, or the op refuses its width.
func (d *DescriptorPCA) applyBlock(descs [][]float64) ([][]float64, bool) {
	op, ok := d.Inner.(core.BlockOp)
	if !ok || len(descs) == 0 {
		return nil, false
	}
	n, in := len(descs), len(descs[0])
	for _, x := range descs[1:] {
		if len(x) != in {
			return nil, false
		}
	}
	rows, err := op.BlockRows(in)
	if err != nil {
		return nil, false
	}
	buf := blockPool.Get().(*[]float64)
	defer blockPool.Put(buf)
	scratch := grow(buf, (in+rows)*n)
	x := linalg.Matrix{Rows: in, Cols: n, Data: scratch[:in*n]}
	for j, desc := range descs {
		for i, v := range desc {
			x.Data[i*n+j] = v
		}
	}
	dst := linalg.Matrix{Rows: rows, Cols: n, Data: scratch[in*n:]}
	if err := op.ApplyBlock(&dst, &x); err != nil {
		panic(fmt.Sprintf("image: %s refused a block it sized: %v", op.Name(), err))
	}
	out := make([][]float64, n)
	backing := make([]float64, n*rows)
	for j := range out {
		row := backing[j*rows : (j+1)*rows : (j+1)*rows]
		for i := range row {
			row[i] = dst.Data[i*n+j]
		}
		out[j] = row
	}
	return out, true
}

// FlattenDescriptors pools the descriptor sets ([][]float64 records) of
// c into one collection of descriptors, in record order, split into as
// many partitions as c has. It counts the descriptors first and
// allocates once.
func FlattenDescriptors(c *engine.Collection) *engine.Collection {
	n := 0
	for i := 0; i < c.NumPartitions(); i++ {
		for _, rec := range c.Partition(i) {
			n += len(rec.([][]float64))
		}
	}
	items := make([]any, 0, n)
	for i := 0; i < c.NumPartitions(); i++ {
		for _, rec := range c.Partition(i) {
			for _, desc := range rec.([][]float64) {
				items = append(items, desc)
			}
		}
	}
	return engine.FromSlice(items, c.NumPartitions())
}

// FlattenedFetch wraps a fetch of descriptor sets into a fetch of their
// FlattenDescriptors. It flattens again only when the wrapped fetch
// returns a different collection from its previous call: an input the
// executor holds (the same collection on every pass) is flattened once
// per fit, and one recomputed for every pass is flattened on every pass.
// Each call is still exactly one call of fetch, so an estimator's passes
// over its input, and the planner's model of them, do not change.
func FlattenedFetch(fetch core.Fetch) core.Fetch {
	var last, flat *engine.Collection
	return func() *engine.Collection {
		if c := fetch(); c != last {
			last, flat = c, FlattenDescriptors(c)
		}
		return flat
	}
}

// DescriptorPCAEst fits PCA over all descriptors pooled across records and
// produces a DescriptorPCA transform. It wraps any descriptor-level
// estimator fitting on []float64 records.
type DescriptorPCAEst struct {
	Fitter core.EstimatorOp // e.g. *pca.PCA
}

// Name implements core.EstimatorOp.
func (d *DescriptorPCAEst) Name() string { return "image.descpca.est[" + d.Fitter.Name() + "]" }

// Fit implements core.EstimatorOp by flattening descriptor sets into
// descriptor records before fitting the inner estimator.
func (d *DescriptorPCAEst) Fit(ctx *engine.Context, data core.Fetch, labels core.Fetch) core.TransformOp {
	inner := d.Fitter.Fit(ctx, FlattenedFetch(data), labels)
	return &DescriptorPCA{Inner: inner}
}

// Options implements core.Optimizable by delegating to the inner
// estimator's options when it is optimizable, re-wrapping each physical
// choice in the descriptor adapter so the operator-level optimizer can
// pick among PCA implementations behind the descriptor interface.
func (d *DescriptorPCAEst) Options() []cost.Option {
	opt, ok := d.Fitter.(core.Optimizable)
	if !ok {
		return nil
	}
	inner := opt.Options()
	out := make([]cost.Option, len(inner))
	for i, o := range inner {
		est, ok := o.Operator.(core.EstimatorOp)
		if !ok {
			continue
		}
		out[i] = cost.Option{Model: o.Model, Operator: &DescriptorPCAEst{Fitter: est}}
	}
	return out
}

// Weight implements core.Iterative when the inner estimator is iterative.
func (d *DescriptorPCAEst) Weight() int {
	if it, ok := d.Fitter.(core.Iterative); ok {
		return it.Weight()
	}
	return 1
}

// ZCAWhitener is the ZCA whitening estimator of the CIFAR-10 pipeline: it
// fits W = U (Λ + εI)^(-1/2) Uᵀ on flat patch vectors and transforms
// records by centering and rotating.
type ZCAWhitener struct {
	Epsilon float64
}

// Name implements core.EstimatorOp.
func (z *ZCAWhitener) Name() string { return "image.zca" }

// Fit implements core.EstimatorOp on []float64 records.
func (z *ZCAWhitener) Fit(ctx *engine.Context, data core.Fetch, labels core.Fetch) core.TransformOp {
	c := data()
	items := c.Collect()
	if len(items) == 0 {
		panic("image: ZCA on empty input")
	}
	d := len(items[0].([]float64))
	rows := make([][]float64, len(items))
	for i, it := range items {
		rows[i] = it.([]float64)
	}
	m := linalg.NewMatrixFrom(rows)
	mean := m.CenterColumns()
	cov := m.TMul(m).Scale(1 / float64(len(items)))
	vals, u := linalg.SymEig(cov)
	eps := z.Epsilon
	if eps <= 0 {
		eps = 1e-2
	}
	scale := make([]float64, d)
	for i, v := range vals {
		scale[i] = 1 / math.Sqrt(math.Max(v, 0)+eps)
	}
	w := u.Mul(linalg.Diag(scale)).Mul(u.T())
	return &zcaTransform{w: w, mean: mean}
}

type zcaTransform struct {
	w    *linalg.Matrix
	mean []float64
}

func (z *zcaTransform) Name() string { return "model.zca" }

func (z *zcaTransform) Apply(in any) any {
	x := in.([]float64)
	centered := make([]float64, len(x))
	for i, v := range x {
		centered[i] = v - z.mean[i]
	}
	return z.w.MulVec(centered)
}

// SymmetricRectifier maps x to [max(0, x-alpha), max(0, -x-alpha)]
// concatenated — the two-sided ReLU of the CIFAR-10 pipeline.
func SymmetricRectifier(alpha float64) core.TransformOp {
	name := fmt.Sprintf("image.symrect[%g]", alpha)
	return core.TypedTransform(name, func(x []float64) []float64 {
		out := make([]float64, 2*len(x))
		for i, v := range x {
			if v-alpha > 0 {
				out[i] = v - alpha
			}
			if -v-alpha > 0 {
				out[len(x)+i] = -v - alpha
			}
		}
		return out
	})
}

// Pooler sums feature-map activations over a PoolSize x PoolSize spatial
// grid, shrinking an image to (W/Pool) x (H/Pool) with the same channel
// count.
type Pooler struct {
	PoolSize int
}

// Name implements core.TransformOp.
func (p *Pooler) Name() string { return "image.pool" }

// Apply maps *Image -> *Image.
func (p *Pooler) Apply(in any) any {
	im, ok := in.(*Image)
	if !ok {
		panic(fmt.Sprintf("image: Pooler expects *Image, got %T", in))
	}
	ps := p.PoolSize
	if ps <= 0 {
		ps = 2
	}
	ow := im.Width / ps
	oh := im.Height / ps
	if ow == 0 || oh == 0 {
		panic(fmt.Sprintf("image: pool %d too large for %dx%d", ps, im.Width, im.Height))
	}
	out := New(ow, oh, im.Channels)
	for c := 0; c < im.Channels; c++ {
		src := im.Plane(c)
		dst := out.Plane(c)
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				var s float64
				for dy := 0; dy < ps; dy++ {
					for dx := 0; dx < ps; dx++ {
						s += src[(y*ps+dy)*im.Width+(x*ps+dx)]
					}
				}
				dst[y*ow+x] = s
			}
		}
	}
	return out
}

// ImageToVector flattens an image to a feature vector.
func ImageToVector() core.TransformOp {
	return core.TypedTransform("image.tovector", func(im *Image) []float64 {
		out := make([]float64, len(im.Pix))
		copy(out, im.Pix)
		return out
	})
}

// PatchExtractor extracts all PatchSize x PatchSize x C patches at the
// given stride as flat vectors — the CIFAR-10 pipeline's patch source for
// ZCA whitening.
type PatchExtractor struct {
	PatchSize int
	Stride    int
}

// Name implements core.TransformOp.
func (p *PatchExtractor) Name() string { return "image.patches" }

// Apply maps *Image -> [][]float64.
func (p *PatchExtractor) Apply(in any) any {
	im, ok := in.(*Image)
	if !ok {
		panic(fmt.Sprintf("image: PatchExtractor expects *Image, got %T", in))
	}
	ps := p.PatchSize
	if ps <= 0 {
		ps = 6
	}
	st := p.Stride
	if st <= 0 {
		st = ps
	}
	var out [][]float64
	for py := 0; py+ps <= im.Height; py += st {
		for px := 0; px+ps <= im.Width; px += st {
			patch := make([]float64, 0, ps*ps*im.Channels)
			for c := 0; c < im.Channels; c++ {
				for dy := 0; dy < ps; dy++ {
					for dx := 0; dx < ps; dx++ {
						patch = append(patch, im.At(px+dx, py+dy, c))
					}
				}
			}
			out = append(out, patch)
		}
	}
	return out
}

// Windower splits an image into a grid of Window x Window sub-images
// (Table 4's Windower).
type Windower struct {
	Window int
}

// Name implements core.TransformOp.
func (w *Windower) Name() string { return "image.windower" }

// Apply maps *Image -> []*Image.
func (w *Windower) Apply(in any) any {
	im, ok := in.(*Image)
	if !ok {
		panic(fmt.Sprintf("image: Windower expects *Image, got %T", in))
	}
	win := w.Window
	if win <= 0 {
		win = im.Width / 2
	}
	var out []*Image
	for py := 0; py+win <= im.Height; py += win {
		for px := 0; px+win <= im.Width; px += win {
			sub := New(win, win, im.Channels)
			for c := 0; c < im.Channels; c++ {
				for dy := 0; dy < win; dy++ {
					for dx := 0; dx < win; dx++ {
						sub.Set(dx, dy, c, im.At(px+dx, py+dy, c))
					}
				}
			}
			out = append(out, sub)
		}
	}
	return out
}
