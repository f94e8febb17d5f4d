package image

import (
	"fmt"
	"math"
	"testing"

	"keystoneml/internal/linalg"
	"keystoneml/internal/pca"
)

// oracleGradients is the border-clamped central-difference gradient of a
// single-channel image, computed a whole image at a time.
func oracleGradients(im *Image) (gx, gy []float64) {
	w, h := im.Width, im.Height
	gx = make([]float64, w*h)
	gy = make([]float64, w*h)
	at := func(x, y int) float64 {
		x = min(max(x, 0), w-1)
		y = min(max(y, 0), h-1)
		return im.Pix[y*w+x]
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			gx[y*w+x] = (at(x+1, y) - at(x-1, y)) / 2
			gy[y*w+x] = (at(x, y+1) - at(x, y-1)) / 2
		}
	}
	return gx, gy
}

// siftOracle is the per-descriptor SIFT loop: every descriptor walks its
// own patch pixel by pixel, recomputing each overlapped pixel's
// magnitude and orientation. Its one departure from the original loop is
// the NaN rule — a pixel whose orientation is NaN adds nothing — where
// the original indexed with int(NaN) and panicked.
func siftOracle(im *Image, params SIFTParams) [][]float64 {
	if im.Channels != 1 {
		im = Grayscale(im)
	}
	p := params.withDefaults()
	gx, gy := oracleGradients(im)
	w, h := im.Width, im.Height
	patch := 4 * p.CellSize
	var descs [][]float64
	for py := 0; py+patch <= h; py += p.Stride {
		for px := 0; px+patch <= w; px += p.Stride {
			desc := make([]float64, 4*4*p.Bins)
			for dy := 0; dy < patch; dy++ {
				for dx := 0; dx < patch; dx++ {
					x, y := px+dx, py+dy
					g, o := gx[y*w+x], gy[y*w+x]
					mag := math.Hypot(g, o)
					if mag == 0 {
						continue
					}
					ang := math.Atan2(o, g) + math.Pi // [0, 2π]
					if math.IsNaN(ang) {
						continue
					}
					bin := int(ang / (2 * math.Pi) * float64(p.Bins))
					if bin >= p.Bins {
						bin = p.Bins - 1
					}
					cell := (dy/p.CellSize)*4 + dx/p.CellSize
					desc[cell*p.Bins+bin] += mag
				}
			}
			linalg.Normalize(desc)
			descs = append(descs, desc)
		}
	}
	return descs
}

// sameDescs reports whether two descriptor sets are equal bit for bit,
// signed zeros and NaN payloads included, and both nil or both not.
func sameDescs(a, b [][]float64) error {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return fmt.Errorf("sets differ: %d descriptors (nil %v) vs %d (nil %v)", len(a), a == nil, len(b), b == nil)
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("descriptor %d: dim %d vs %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return fmt.Errorf("descriptor %d[%d]: %v vs %v", i, j, a[i][j], b[i][j])
			}
		}
	}
	return nil
}

func ramp(w, h int, alongX bool) *Image {
	im := New(w, h, 1)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := float64(y)
			if alongX {
				v = float64(x)
			}
			im.Set(x, y, 0, v)
		}
	}
	return im
}

// TestSIFTMatchesOracle pins the shared per-pixel, per-cell SIFT to the
// per-descriptor loop bit for bit, across strides that are not a
// multiple of the cell size, strides wider than a patch, bin counts,
// image shapes whose grid does not reach the far border, and the
// degenerate inputs.
func TestSIFTMatchesOracle(t *testing.T) {
	params := []SIFTParams{
		{},
		{CellSize: 3, Stride: 5},
		{CellSize: 2, Stride: 3},
		{CellSize: 2, Stride: 11}, // wider than the 8-pixel patch
		{Bins: 6},
		{Bins: 16},
	}
	images := []*Image{
		randomImage(11, 16, 16, 1),
		randomImage(12, 33, 33, 1),
		randomImage(13, 40, 48, 1),
		randomImage(14, 48, 48, 1),
	}
	for _, p := range params {
		for _, im := range images {
			name := fmt.Sprintf("%dx%d_cell%d_stride%d_bins%d", im.Width, im.Height, p.CellSize, p.Stride, p.Bins)
			t.Run(name, func(t *testing.T) {
				if err := sameDescs((&SIFT{Params: p}).Apply(im).([][]float64), siftOracle(im, p)); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
	constant := New(24, 24, 1)
	for i := range constant.Pix {
		constant.Pix[i] = 0.7
	}
	special := []struct {
		name string
		im   *Image
	}{
		{"ramp-x", ramp(16, 16, true)},
		{"ramp-y", ramp(20, 16, false)},
		{"constant", constant},
		{"3-channel", randomImage(15, 40, 40, 3)},
		{"smaller-than-patch", randomImage(16, 15, 40, 1)},
	}
	for _, c := range special {
		t.Run(c.name, func(t *testing.T) {
			got := (&SIFT{}).Apply(c.im).([][]float64)
			if err := sameDescs(got, siftOracle(c.im, SIFTParams{})); err != nil {
				t.Fatal(err)
			}
			switch c.name {
			case "smaller-than-patch":
				if got != nil {
					t.Fatalf("image smaller than a patch gave %d descriptors, want nil", len(got))
				}
			case "constant":
				for _, d := range got {
					for _, v := range d {
						if math.Float64bits(v) != 0 {
							t.Fatalf("constant image gave %v, want +0 everywhere", d)
						}
					}
				}
			case "ramp-x", "ramp-y":
				checkRamp(t, c.name == "ramp-x", got[0])
			}
		})
	}
}

// checkRamp checks the first descriptor of a unit ramp 16 pixels long:
// every gradient points along the ramp, so into one orientation bin,
// with magnitude 1, except on the clamped border, where the central
// difference spans one pixel and gives 1/2. So the first and last cells
// along the ramp hold 3.5 per line, the inner two 4.
func checkRamp(t *testing.T, alongX bool, desc []float64) {
	t.Helper()
	along, across := oracleGradients(ramp(16, 16, alongX))
	at := func(pos int) int { return 5*16 + pos } // pixel pos along the ramp, 5 across
	if !alongX {
		along, across = across, along
		at = func(pos int) int { return pos*16 + 5 }
	}
	if along[at(7)] != 1 || along[at(0)] != 0.5 || along[at(15)] != 0.5 || across[at(7)] != 0 {
		t.Fatalf("oracle gradients along the ramp: interior %g, borders %g %g, across %g; want 1, 0.5, 0.5, 0",
			along[at(7)], along[at(0)], along[at(15)], across[at(7)])
	}
	gx, gy := 1.0, 0.0
	if !alongX {
		gx, gy = gy, gx
	}
	bin := int((math.Atan2(gy, gx) + math.Pi) / (2 * math.Pi) * 8)
	norm := math.Sqrt(4 * (14*14 + 16*16 + 16*16 + 14*14))
	for c := 0; c < 16; c++ {
		pos := c % 4 // the cell's place along the ramp
		if !alongX {
			pos = c / 4
		}
		want := 16 / norm
		if pos == 0 || pos == 3 {
			want = 14 / norm
		}
		for b := 0; b < 8; b++ {
			got := desc[c*8+b]
			if b != bin {
				if got != 0 {
					t.Fatalf("cell %d bin %d = %g, want 0", c, b, got)
				}
			} else if math.Abs(got-want) > 1e-12 {
				t.Fatalf("cell %d bin %d = %g, want %g", c, b, got, want)
			}
		}
	}
}

// TestSIFTNonFinitePixels: a NaN or infinite pixel never panics SIFT. A
// pixel whose orientation is NaN adds nothing, and every other pixel —
// infinite magnitudes included — adds what the per-descriptor loop adds.
func TestSIFTNonFinitePixels(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name string
		set  func(im *Image)
	}{
		{"nan", func(im *Image) { im.Set(9, 9, 0, math.NaN()) }},
		{"+inf", func(im *Image) { im.Set(9, 9, 0, inf) }},
		{"-inf", func(im *Image) { im.Set(0, 9, 0, -inf) }},
		{"+inf-pair", func(im *Image) { im.Set(8, 9, 0, inf); im.Set(10, 9, 0, inf) }},
		{"-inf-column", func(im *Image) {
			for y := 0; y < im.Height; y++ {
				im.Set(20, y, 0, -inf)
			}
		}},
		{"nan-corner", func(im *Image) { im.Set(im.Width-1, im.Height-1, 0, math.NaN()) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			im := randomImage(17, 32, 32, 1)
			c.set(im)
			var got [][]float64
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("SIFT panicked: %v", r)
					}
				}()
				got = (&SIFT{}).Apply(im).([][]float64)
			}()
			if err := sameDescs(got, siftOracle(im, SIFTParams{})); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDescriptorPCABlockBits pins DescriptorPCA's one-block projection to
// the per-descriptor loop bit for bit under both kernel backends, with
// ±0 weights in P and a descriptor equal to the training mean (every
// centred value 0, so Apply skips them all).
func TestDescriptorPCABlockBits(t *testing.T) {
	rng := linalg.NewRNG(21)
	const d, k, n = 12, 5, 30
	proj := &pca.Projection{P: rng.GaussianMatrix(d, k), Mean: rng.GaussianVector(d), Impl: "test"}
	proj.P.Data[3], proj.P.Data[7], proj.P.Data[k*4] = 0, math.Copysign(0, -1), 0
	descs := make([][]float64, n)
	for i := range descs {
		descs[i] = rng.GaussianVector(d)
	}
	descs[4] = linalg.CloneVec(proj.Mean)
	descs[9][2] = proj.Mean[2]
	defer linalg.SetBackendMode(linalg.Mode())
	for _, mode := range []linalg.BackendMode{linalg.ModeReference, linalg.ModeBlocked} {
		linalg.SetBackendMode(mode)
		want := make([][]float64, n)
		for i, x := range descs {
			want[i] = proj.Apply(x).([]float64)
		}
		got := (&DescriptorPCA{Inner: proj}).Apply(descs).([][]float64)
		if err := sameDescs(got, want); err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		for i, v := range got[4] {
			if math.Float64bits(v) != 0 {
				t.Fatalf("mode %d: the mean projected to %v, want +0 everywhere", mode, got[4][i])
			}
		}
	}
}

// TestPooledScratchConcurrent runs SIFT and the block DescriptorPCA
// from several goroutines at once, each on its own image size so pooled
// scratch changes shape between uses; every result must equal the
// serial one.
func TestPooledScratchConcurrent(t *testing.T) {
	rng := linalg.NewRNG(41)
	proj := &pca.Projection{P: rng.GaussianMatrix(128, 6), Mean: rng.GaussianVector(128), Impl: "test"}
	op := &DescriptorPCA{Inner: proj}
	images := []*Image{
		randomImage(42, 16, 16, 1), randomImage(43, 48, 48, 3),
		randomImage(44, 33, 40, 1), randomImage(45, 64, 24, 1),
	}
	want := make([][][]float64, len(images))
	for i, im := range images {
		want[i] = op.Apply((&SIFT{}).Apply(im)).([][]float64)
	}
	errs := make(chan error, len(images))
	for i, im := range images {
		go func() {
			for round := 0; round < 20; round++ {
				got := op.Apply((&SIFT{}).Apply(im)).([][]float64)
				if err := sameDescs(got, want[i]); err != nil {
					errs <- fmt.Errorf("image %d round %d: %v", i, round, err)
					return
				}
			}
			errs <- nil
		}()
	}
	for range images {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

var siftSink any

// BenchmarkSIFT is one vision record's descriptor extraction: a 48x48
// colour image at the default parameters, 25 descriptors.
func BenchmarkSIFT(b *testing.B) {
	im := randomImage(31, 48, 48, 3)
	s := &SIFT{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		siftSink = s.Apply(im)
	}
}
