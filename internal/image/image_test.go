package image

import (
	"math"
	"testing"
)

func TestImageBasics(t *testing.T) {
	im := New(4, 3, 2)
	im.Set(1, 2, 1, 5.5)
	if im.At(1, 2, 1) != 5.5 {
		t.Error("Set/At mismatch")
	}
	if im.At(1, 2, 0) != 0 {
		t.Error("other channel affected")
	}
	if len(im.Plane(1)) != 12 {
		t.Errorf("plane size = %d", len(im.Plane(1)))
	}
	if im.ByteSize() != 8*24+48 {
		t.Errorf("ByteSize = %d", im.ByteSize())
	}
	c := im.Clone()
	c.Set(0, 0, 0, 9)
	if im.At(0, 0, 0) == 9 {
		t.Error("Clone aliases original")
	}
}

func TestInvalidDimensionsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(0, 4, 1)
}

func TestGrayscaleLuminance(t *testing.T) {
	im := New(1, 1, 3)
	im.Set(0, 0, 0, 1) // pure red
	g := Grayscale(im)
	if g.Channels != 1 {
		t.Fatal("not single channel")
	}
	if math.Abs(g.At(0, 0, 0)-0.299) > 1e-12 {
		t.Errorf("red luminance = %g, want 0.299", g.At(0, 0, 0))
	}
	// Single channel passes through unchanged.
	if Grayscale(g) != g {
		t.Error("grayscale of grayscale should be identity")
	}
}

func TestGrayscaleAverageFor4Channels(t *testing.T) {
	im := New(1, 1, 4)
	for c := 0; c < 4; c++ {
		im.Set(0, 0, c, float64(c))
	}
	g := Grayscale(im)
	if math.Abs(g.At(0, 0, 0)-1.5) > 1e-12 {
		t.Errorf("average = %g, want 1.5", g.At(0, 0, 0))
	}
}

func TestNormalize01(t *testing.T) {
	im := New(2, 1, 1)
	im.Pix[0], im.Pix[1] = -2, 6
	Normalize01(im)
	if im.Pix[0] != 0 || im.Pix[1] != 1 {
		t.Errorf("normalized = %v", im.Pix)
	}
	flat := New(2, 1, 1)
	flat.Pix[0], flat.Pix[1] = 3, 3
	Normalize01(flat)
	if flat.Pix[0] != 0 || flat.Pix[1] != 0 {
		t.Errorf("constant image normalized to %v, want zeros", flat.Pix)
	}
}
