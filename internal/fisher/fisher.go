// Package fisher implements the (improved) Fisher vector encoder of
// Sánchez et al., the feature aggregation step of the paper's ImageNet and
// VOC pipelines: a set of local descriptors is encoded against a GMM
// vocabulary into one fixed-length 2·K·d gradient vector, then
// power- and L2-normalized.
package fisher

import (
	"fmt"
	"math"

	"keystoneml/internal/gmm"
)

// Encoder is a TransformOp mapping [][]float64 (the local descriptors of
// one image) to a []float64 Fisher vector of length 2*K*d.
type Encoder struct {
	Model *gmm.Model
	// PowerNorm applies signed square-root normalization (the "improved"
	// FV); L2Norm scales to unit length. Both default to true via
	// NewEncoder.
	PowerNorm bool
	L2Norm    bool
}

// NewEncoder returns an improved-FV encoder (power + L2 normalization).
func NewEncoder(m *gmm.Model) *Encoder {
	return &Encoder{Model: m, PowerNorm: true, L2Norm: true}
}

// Name implements core.TransformOp.
func (e *Encoder) Name() string { return "fisher.encode" }

// Apply implements core.TransformOp.
func (e *Encoder) Apply(in any) any {
	descs, ok := in.([][]float64)
	if !ok {
		panic(fmt.Sprintf("fisher: expected [][]float64 descriptors, got %T", in))
	}
	return e.Encode(descs)
}

// Encode computes the Fisher vector of a descriptor set. Every
// descriptor's posteriors go into one K-vector, so a call allocates its
// output and that vector.
func (e *Encoder) Encode(descs [][]float64) []float64 {
	k := e.Model.K()
	d := e.Model.Dim()
	fv := make([]float64, 2*k*d)
	if len(descs) == 0 {
		return fv
	}
	gMu := fv[:k*d]
	gSig := fv[k*d:]
	gam := make([]float64, k)
	for _, x := range descs {
		e.Model.PosteriorsInto(gam, x)
		for c := 0; c < k; c++ {
			g := gam[c]
			if g < 1e-12 {
				continue
			}
			mu := e.Model.Means.Row(c)
			va := e.Model.Vars.Row(c)
			for j := 0; j < d; j++ {
				u := (x[j] - mu[j]) / math.Sqrt(va[j])
				gMu[c*d+j] += g * u
				gSig[c*d+j] += g * (u*u - 1)
			}
		}
	}
	t := float64(len(descs))
	for c := 0; c < k; c++ {
		w := e.Model.Weights[c]
		nMu := 1 / (t * math.Sqrt(w+1e-12))
		nSig := 1 / (t * math.Sqrt(2*(w+1e-12)))
		for j := 0; j < d; j++ {
			gMu[c*d+j] *= nMu
			gSig[c*d+j] *= nSig
		}
	}
	if e.PowerNorm {
		for i, v := range fv {
			if v >= 0 {
				fv[i] = math.Sqrt(v)
			} else {
				fv[i] = -math.Sqrt(-v)
			}
		}
	}
	if e.L2Norm {
		var norm float64
		for _, v := range fv {
			norm += v * v
		}
		if norm > 0 {
			inv := 1 / math.Sqrt(norm)
			for i := range fv {
				fv[i] *= inv
			}
		}
	}
	return fv
}
