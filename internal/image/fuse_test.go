package image

import (
	"fmt"
	"math"
	"testing"

	"keystoneml/internal/core"
)

// fusionCases are the images SIFT's fused Grayscale is pinned on: three,
// two and one channels, an image smaller than one patch, and a NaN pixel.
func fusionCases() map[string]*Image {
	nan := randomImage(54, 40, 40, 3)
	nan.Set(17, 9, 1, math.NaN())
	return map[string]*Image{
		"3 channels":         randomImage(51, 48, 48, 3),
		"2 channels":         randomImage(52, 33, 40, 2),
		"1 channel":          randomImage(53, 24, 24, 1),
		"smaller than patch": randomImage(55, 12, 20, 3),
		"NaN pixel":          nan,
	}
}

// TestSIFTFuseChainBits: SIFT absorbs a feeding Grayscale, and the fused
// function gives, bit for bit, what Grayscale then SIFT gives. One fused
// function runs every case twice, so its scratch changes shape between
// records.
func TestSIFTFuseChainBits(t *testing.T) {
	for _, params := range []SIFTParams{{}, {CellSize: 3, Stride: 5, Bins: 6}} {
		sift, gray := &SIFT{Params: params}, GrayscaleOp()
		n, newApply := sift.FuseChain([]core.TransformOp{gray})
		if n != 1 {
			t.Fatalf("FuseChain absorbed %d operators, want 1", n)
		}
		apply := newApply()
		for round := 0; round < 2; round++ {
			for name, im := range fusionCases() {
				want := sift.Apply(gray.Apply(im)).([][]float64)
				if err := sameDescs(apply(im).([][]float64), want); err != nil {
					t.Errorf("%+v %s round %d: %v", params, name, round, err)
				}
			}
		}
	}
}

// TestSIFTFuseChainDeclines: SIFT absorbs a Grayscale only when it feeds
// SIFT directly.
func TestSIFTFuseChainDeclines(t *testing.T) {
	for _, chain := range [][]core.TransformOp{
		nil,
		{&Pooler{PoolSize: 2}},
		{GrayscaleOp(), &Pooler{PoolSize: 2}},
	} {
		if n, _ := (&SIFT{}).FuseChain(chain); n != 0 {
			t.Errorf("absorbed %d operators of %v, want 0", n, chain)
		}
	}
	if n, _ := (&SIFT{}).FuseChain([]core.TransformOp{&Pooler{PoolSize: 2}, GrayscaleOp()}); n != 1 {
		t.Errorf("absorbed %d operators of a chain ending in Grayscale, want 1", n)
	}
}

// TestSIFTFusedPanics: a record Grayscale refuses panics the fused
// function with Grayscale's own panic: a record that is not an *Image,
// and a multi-channel image without pixels.
func TestSIFTFusedPanics(t *testing.T) {
	sift, gray := &SIFT{}, GrayscaleOp()
	fused := core.Fuse(sift, []core.TransformOp{gray})
	for name, rec := range map[string]any{
		"not an image": []float64{1, 2},
		"nil":          nil,
		"zero width":   &Image{Width: 0, Height: 4, Channels: 3},
	} {
		want := panicOf(func() { sift.Apply(gray.Apply(rec)) })
		got := panicOf(func() { fused.Apply(rec) })
		if want == "" || got != want {
			t.Errorf("%s: fused panicked %q, want %q", name, got, want)
		}
	}
}

// panicOf runs fn and returns what it panicked with, "" if it did not.
func panicOf(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// TestSIFTFusedRoundTrip: the fused operator encodes as its two
// operators, and the decoded operator, which fuses again, applies bit
// for bit as the original. This is how a remote worker receives it.
func TestSIFTFusedRoundTrip(t *testing.T) {
	fused := core.Fuse(&SIFT{Params: SIFTParams{Stride: 6}}, []core.TransformOp{GrayscaleOp()})
	kind, state, err := core.EncodeOp(fused)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := core.DecodeOp(kind, state)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Name() != "image.grayscale+image.sift" {
		t.Errorf("decoded %q, want image.grayscale+image.sift", decoded.Name())
	}
	for name, im := range fusionCases() {
		if err := sameDescs(decoded.Apply(im).([][]float64), fused.Apply(im).([][]float64)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// lcsOracle is LCS as a loop appending one fresh descriptor per patch.
func lcsOracle(im *Image, ps, st int) [][]float64 {
	var descs [][]float64
	for py := 0; py+ps <= im.Height; py += st {
		for px := 0; px+ps <= im.Width; px += st {
			desc := make([]float64, 2*im.Channels)
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
			descs = append(descs, desc)
		}
	}
	return descs
}

// TestLCSMatchesOracle pins LCS's one-backing-array form to the
// per-descriptor loop bit for bit, and its cost: the set and its backing
// array, plus, through Apply, the box of the returned slice header.
func TestLCSMatchesOracle(t *testing.T) {
	for _, c := range []struct {
		im     *Image
		ps, st int
	}{
		{randomImage(61, 48, 48, 3), 6, 8},
		{randomImage(62, 33, 20, 2), 5, 3},
		{randomImage(63, 16, 16, 1), 16, 8},
	} {
		l := &LCS{PatchSize: c.ps, Stride: c.st}
		if err := sameDescs(l.Apply(c.im).([][]float64), lcsOracle(c.im, c.ps, c.st)); err != nil {
			t.Errorf("%v patch %d stride %d: %v", c.im, c.ps, c.st, err)
		}
		if allocs := testing.AllocsPerRun(20, func() { l.descriptors(c.im) }); allocs != 2 {
			t.Errorf("%v: %.0f allocations per set, want 2", c.im, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() { l.Apply(c.im) }); allocs != 3 {
			t.Errorf("%v: %.0f allocations per Apply, want 3", c.im, allocs)
		}
	}
	small := randomImage(64, 5, 40, 3)
	if got := (&LCS{}).Apply(small).([][]float64); got != nil || lcsOracle(small, 6, 8) != nil {
		t.Errorf("an image narrower than a patch gave %v, want nil", got)
	}
}
