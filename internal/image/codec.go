package image

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"keystoneml/internal/core"
	"keystoneml/internal/linalg"
)

// gobEncode is the shared helper behind this package's codecs.
func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

func gobDecode(state []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(state)).Decode(v)
}

// StateKind implements core.StateCodec.
func (s *SIFT) StateKind() string { return "image.sift" }

// EncodeState implements core.StateCodec.
func (s *SIFT) EncodeState() ([]byte, error) { return gobEncode(s.Params) }

// StateKind implements core.StateCodec.
func (l *LCS) StateKind() string { return "image.lcs" }

// lcsState is the gob payload behind LCS's StateCodec.
type lcsState struct{ PatchSize, Stride int }

// EncodeState implements core.StateCodec.
func (l *LCS) EncodeState() ([]byte, error) {
	return gobEncode(lcsState{PatchSize: l.PatchSize, Stride: l.Stride})
}

// StateKind implements core.StateCodec.
func (c *ColumnSampler) StateKind() string { return "image.columnsample" }

// columnSamplerState is the gob payload behind ColumnSampler's StateCodec.
type columnSamplerState struct {
	N    int
	Seed uint64
}

// EncodeState implements core.StateCodec.
func (c *ColumnSampler) EncodeState() ([]byte, error) {
	return gobEncode(columnSamplerState{N: c.N, Seed: c.Seed})
}

// StateKind implements core.StateCodec.
func (d *DescriptorPCA) StateKind() string { return "image.descpca" }

// descPCAState nests the inner projection's encoded form.
type descPCAState struct {
	Kind  string
	State []byte
}

// EncodeState implements core.StateCodec.
func (d *DescriptorPCA) EncodeState() ([]byte, error) {
	kind, state, err := core.EncodeOp(d.Inner)
	if err != nil {
		return nil, err
	}
	return gobEncode(descPCAState{Kind: kind, State: state})
}

// StateKind implements core.StateCodec.
func (z *zcaTransform) StateKind() string { return "model.zca" }

// zcaState is the gob payload behind the fitted ZCA transform's
// StateCodec (the operator's own fields are unexported).
type zcaState struct {
	W    *linalg.Matrix
	Mean []float64
}

// EncodeState implements core.StateCodec.
func (z *zcaTransform) EncodeState() ([]byte, error) {
	return gobEncode(zcaState{W: z.w, Mean: z.mean})
}

// StateKind implements core.StateCodec.
func (p *Pooler) StateKind() string { return "image.pool" }

// poolerState is the gob payload behind Pooler's StateCodec.
type poolerState struct{ PoolSize int }

// EncodeState implements core.StateCodec.
func (p *Pooler) EncodeState() ([]byte, error) {
	return gobEncode(poolerState{PoolSize: p.PoolSize})
}

// StateKind implements core.StateCodec.
func (p *PatchExtractor) StateKind() string { return "image.patches" }

// patchState is the gob payload behind PatchExtractor's StateCodec.
type patchState struct{ PatchSize, Stride int }

// EncodeState implements core.StateCodec.
func (p *PatchExtractor) EncodeState() ([]byte, error) {
	return gobEncode(patchState{PatchSize: p.PatchSize, Stride: p.Stride})
}

// StateKind implements core.StateCodec.
func (w *Windower) StateKind() string { return "image.windower" }

// windowerState is the gob payload behind Windower's StateCodec.
type windowerState struct{ Window int }

// EncodeState implements core.StateCodec.
func (w *Windower) EncodeState() ([]byte, error) {
	return gobEncode(windowerState{Window: w.Window})
}

func init() {
	core.RegisterStateDecoder("image.sift", func(state []byte) (core.TransformOp, error) {
		var p SIFTParams
		if err := gobDecode(state, &p); err != nil {
			return nil, err
		}
		return &SIFT{Params: p}, nil
	})
	core.RegisterStateDecoder("image.lcs", func(state []byte) (core.TransformOp, error) {
		var s lcsState
		if err := gobDecode(state, &s); err != nil {
			return nil, err
		}
		return &LCS{PatchSize: s.PatchSize, Stride: s.Stride}, nil
	})
	core.RegisterStateDecoder("image.columnsample", func(state []byte) (core.TransformOp, error) {
		var s columnSamplerState
		if err := gobDecode(state, &s); err != nil {
			return nil, err
		}
		return &ColumnSampler{N: s.N, Seed: s.Seed}, nil
	})
	core.RegisterStateDecoder("image.descpca", func(state []byte) (core.TransformOp, error) {
		var s descPCAState
		if err := gobDecode(state, &s); err != nil {
			return nil, err
		}
		inner, err := core.DecodeOp(s.Kind, s.State)
		if err != nil {
			return nil, err
		}
		return &DescriptorPCA{Inner: inner}, nil
	})
	core.RegisterStateDecoder("model.zca", func(state []byte) (core.TransformOp, error) {
		var s zcaState
		if err := gobDecode(state, &s); err != nil {
			return nil, err
		}
		return &zcaTransform{w: s.W, mean: s.Mean}, nil
	})
	core.RegisterStateDecoder("image.pool", func(state []byte) (core.TransformOp, error) {
		var s poolerState
		if err := gobDecode(state, &s); err != nil {
			return nil, err
		}
		return &Pooler{PoolSize: s.PoolSize}, nil
	})
	core.RegisterStateDecoder("image.patches", func(state []byte) (core.TransformOp, error) {
		var s patchState
		if err := gobDecode(state, &s); err != nil {
			return nil, err
		}
		return &PatchExtractor{PatchSize: s.PatchSize, Stride: s.Stride}, nil
	})
	core.RegisterStateDecoder("image.windower", func(state []byte) (core.TransformOp, error) {
		var s windowerState
		if err := gobDecode(state, &s); err != nil {
			return nil, err
		}
		return &Windower{Window: s.Window}, nil
	})

	// The pixel-level featurizers are stateless; symrect carries its
	// rectification threshold in the name.
	core.RegisterFuncResolver(func(name string) (core.TransformOp, bool) {
		switch name {
		case "image.grayscale":
			return GrayscaleOp(), true
		case "image.tovector":
			return ImageToVector(), true
		case "image.flatten":
			return Flatten(), true
		}
		var alpha float64
		if n, err := fmt.Sscanf(name, "image.symrect[%g]", &alpha); n == 1 && err == nil {
			return SymmetricRectifier(alpha), true
		}
		return nil, false
	})
}
