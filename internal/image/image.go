// Package image provides the image data type and the image-processing
// operators used by the paper's vision pipelines (Table 4): grayscale
// conversion, dense SIFT-style descriptors, local color statistics,
// patch extraction, windowing, ZCA whitening, symmetric rectification and
// spatial pooling.
package image

import (
	"fmt"
	"math"
)

// Image is a planar float64 image: Pix[c*W*H + y*W + x] holds channel c at
// pixel (x, y). Planar layout keeps per-channel convolutions and FFTs
// contiguous.
type Image struct {
	Width, Height, Channels int
	Pix                     []float64
}

// New allocates a zeroed image.
func New(w, h, c int) *Image {
	checkDims(w, h, c)
	return &Image{Width: w, Height: h, Channels: c, Pix: make([]float64, w*h*c)}
}

// checkDims panics, as New does, unless every dimension is positive.
func checkDims(w, h, c int) {
	if w <= 0 || h <= 0 || c <= 0 {
		panic(fmt.Sprintf("image: invalid dimensions %dx%dx%d", w, h, c))
	}
}

// At returns channel c at (x, y).
func (im *Image) At(x, y, c int) float64 {
	return im.Pix[c*im.Width*im.Height+y*im.Width+x]
}

// Set assigns channel c at (x, y).
func (im *Image) Set(x, y, c int, v float64) {
	im.Pix[c*im.Width*im.Height+y*im.Width+x] = v
}

// Plane returns channel c's pixels as a slice aliasing the image.
func (im *Image) Plane(c int) []float64 {
	n := im.Width * im.Height
	return im.Pix[c*n : (c+1)*n]
}

// Clone deep-copies the image.
func (im *Image) Clone() *Image {
	out := New(im.Width, im.Height, im.Channels)
	copy(out.Pix, im.Pix)
	return out
}

// ByteSize implements core.ByteSizer.
func (im *Image) ByteSize() int64 { return int64(8*len(im.Pix)) + 48 }

// String implements fmt.Stringer.
func (im *Image) String() string {
	return fmt.Sprintf("image(%dx%dx%d)", im.Width, im.Height, im.Channels)
}

// Grayscale converts a multi-channel image to one channel using the
// standard luminance weights for 3-channel inputs and a uniform average
// otherwise.
func Grayscale(im *Image) *Image {
	if im.Channels == 1 {
		return im
	}
	out := New(im.Width, im.Height, 1)
	luminance(out.Pix, im)
	return out
}

// luminance is Grayscale's arithmetic on a multi-channel image, written
// into dst (Width*Height long, whatever it holds). Grayscale and SIFT's
// own conversion both run it, so their planes agree bit for bit.
func luminance(dst []float64, im *Image) {
	n := im.Width * im.Height
	if im.Channels == 3 {
		r, g, b := im.Plane(0), im.Plane(1), im.Plane(2)
		for i := 0; i < n; i++ {
			dst[i] = 0.299*r[i] + 0.587*g[i] + 0.114*b[i]
		}
		return
	}
	clear(dst[:n])
	inv := 1.0 / float64(im.Channels)
	for c := 0; c < im.Channels; c++ {
		p := im.Plane(c)
		for i := 0; i < n; i++ {
			dst[i] += inv * p[i]
		}
	}
}

// Normalize01 linearly rescales pixel values into [0, 1] in place and
// returns the image. Constant images become all zeros.
func Normalize01(im *Image) *Image {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range im.Pix {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi <= lo {
		for i := range im.Pix {
			im.Pix[i] = 0
		}
		return im
	}
	inv := 1 / (hi - lo)
	for i := range im.Pix {
		im.Pix[i] = (im.Pix[i] - lo) * inv
	}
	return im
}
