package main

import (
	"encoding/json"
	"fmt"

	"keystoneml/keystone"
	"keystoneml/keystone/serve"
)

// spec describes one workload: the pipeline, how its data is generated,
// how a request to its route is built, and the shapes its layer probes
// use. The lifecycle itself (lifecycle.go) is identical for every spec.
type spec[I any] struct {
	name  string
	route string // serve route name (also the dist serve kind)

	pipe func() *keystone.Pipeline[I, []float64]
	data func(n int, seed uint64) keystone.Dataset[I]
	// train/holdout record counts at full and at -smoke scale.
	train, holdout           int
	smokeTrain, smokeHoldout int

	codec serve.Codec[I, []float64]
	// batch is how many records one request carries: 1 posts to
	// /predict (micro-batched by the route), more posts a
	// caller-assembled batch to /predict/batch (which bypasses the batcher).
	batch int
	body  func(recs []I) any // JSON-marshalable request body for recs

	// dist fits over two in-process workers and serves through the
	// replica router instead of a local server.
	dist bool

	// Layer-probe shapes: gemm is the dominant dense product m x k · k x n
	// of the fit, gemv the model's apply-time rows x cols, spmmNNZ the
	// non-zeros per row of the sparse design matrix (0 = no sparse probe).
	gemm    [3]int
	gemv    [2]int
	spmmNNZ int
}

// workload is the type-erased handle main dispatches on.
type workload struct {
	name string
	run  func(cfg runConfig) (*result, error)
}

func erase[I any](s *spec[I]) workload {
	return workload{name: s.name, run: func(cfg runConfig) (*result, error) { return runWorkload(s, cfg) }}
}

const textFeatures = 5000

// textCodec serves the text routes, local and on dist workers alike.
var textCodec = serve.TextCodec{Labels: []string{"negative", "positive"}}

func textSpec(name string, distributed bool) *spec[string] {
	return &spec[string]{
		name:  name,
		route: "text",
		pipe: func() *keystone.Pipeline[string, []float64] {
			return keystone.TextPipeline(keystone.TextConfig{NumFeatures: textFeatures, Iterations: 20})
		},
		data:  keystone.SyntheticReviews,
		train: 12000, holdout: 3000,
		smokeTrain: 200, smokeHoldout: 50,
		codec: textCodec,
		batch: 1,
		body:  func(recs []string) any { return map[string]string{"text": recs[0]} },
		dist:  distributed,
		// L-BFGS on text is sparse: the dense product that exists is the
		// micro-batch's scores, 32 x features · features x 2.
		gemm:    [3]int{32, textFeatures, 2},
		gemv:    [2]int{2, textFeatures},
		spmmNNZ: 60,
	}
}

func speechSpec() *spec[[]float64] {
	const dim, features, classes = 40, 512, 8
	return &spec[[]float64]{
		name:  "speech-batch",
		route: "speech",
		pipe: func() *keystone.Pipeline[[]float64, []float64] {
			return keystone.SpeechPipeline(keystone.SpeechConfig{InputDim: dim, NumFeatures: features, Seed: 7, Iterations: 20})
		},
		data: func(n int, seed uint64) keystone.Dataset[[]float64] {
			return keystone.SyntheticDenseVectors(n, dim, classes, seed)
		},
		train: 6000, holdout: 1500,
		smokeTrain: 100, smokeHoldout: 64,
		codec: serve.VectorCodec{Dim: dim},
		batch: 64,
		body:  func(recs [][]float64) any { return map[string][][]float64{"vectors": recs} },
		// One partition's design matrix times the weights: the product
		// every L-BFGS pass computes.
		gemm: [3]int{3000, features, classes},
		gemv: [2]int{classes, features},
	}
}

func visionSpec() *spec[*keystone.Image] {
	const size, channels, classes = 48, 3, 4
	const pcaDims, gmmK = 12, 6
	return &spec[*keystone.Image]{
		name:  "vision-dag",
		route: "vision",
		pipe: func() *keystone.Pipeline[*keystone.Image, []float64] {
			return keystone.VisionPipeline(keystone.VisionConfig{
				PCADims: pcaDims, GMMComponents: gmmK, SampleDescs: 30, Seed: 9, Iterations: 20, WithLCS: true})
		},
		data: func(n int, seed uint64) keystone.Dataset[*keystone.Image] {
			return keystone.SyntheticImages(n, size, channels, classes, seed)
		},
		train: 1000, holdout: 250,
		smokeTrain: 30, smokeHoldout: 8,
		codec: serve.ImageCodec{},
		batch: 1,
		body: func(recs []*keystone.Image) any {
			im := recs[0]
			return map[string]any{"width": im.Width, "height": im.Height, "channels": im.Channels, "pixels": im.Pix}
		},
		// Sampled SIFT descriptors (30 per image) projected by PCA.
		gemm: [3]int{30 * 1000, 128, pcaDims},
		gemv: [2]int{classes, 2 * 2 * gmmK * pcaDims},
	}
}

// workloads lists the four workloads in the order `-workload all` runs them.
func workloads() []workload {
	return []workload{
		erase(textSpec("text-single", false)),
		erase(speechSpec()),
		erase(visionSpec()),
		erase(textSpec("text-dist", true)),
	}
}

// request is one prepared HTTP request: the marshaled body and the score
// vectors the in-process pipeline produces for its records.
type request[I any] struct {
	recs   []I
	body   []byte
	expect [][]float64
}

// buildRequests prepares every distinct request of a workload from the
// holdout records and their expected scores: one per record for
// single-record routes, consecutive batches otherwise. Bodies are
// marshaled here, before anything is timed, so the load generator — which
// shares the two cores with the server — spends its time on the wire.
func buildRequests[I any](s *spec[I], recs []I, expect [][]float64) ([]request[I], error) {
	var out []request[I]
	for lo := 0; lo+s.batch <= len(recs); lo += s.batch {
		body, err := json.Marshal(s.body(recs[lo : lo+s.batch]))
		if err != nil {
			return nil, fmt.Errorf("marshal request: %w", err)
		}
		out = append(out, request[I]{recs: recs[lo : lo+s.batch], body: body, expect: expect[lo : lo+s.batch]})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: %d holdout records cannot fill one %d-record request", s.name, len(recs), s.batch)
	}
	return out, nil
}

// path is the HTTP path requests of this workload post to.
func (s *spec[I]) path() string {
	if s.batch > 1 {
		return "/routes/" + s.route + "/predict/batch"
	}
	return "/routes/" + s.route + "/predict"
}
