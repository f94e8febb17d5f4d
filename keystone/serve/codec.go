package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"keystoneml/keystone"
)

// Codec translates between a route's JSON wire format and the typed
// records of its pipeline. Each route owns a codec, which is what lets
// one Server host text, speech and vision pipelines simultaneously — the
// registry is type-erased, the codecs are not.
//
// DecodeRequest parses a single-prediction body, DecodeBatch a batch
// body, and Response renders one pipeline output as a JSON-marshalable
// value.
type Codec[I, O any] interface {
	DecodeRequest(body []byte) (I, error)
	DecodeBatch(body []byte) ([]I, error)
	Response(out O) any
}

// Prediction is the standard classification response: the argmax class,
// its label, and the raw per-class scores.
type Prediction struct {
	Label  string    `json:"label"`
	Class  int       `json:"class"`
	Scores []float64 `json:"scores"`
}

// ClassPrediction resolves a score vector to its argmax class and label.
// Classes beyond the label list (or with empty labels) fall back to
// "classN", so pipelines with any number of classes serve correct labels
// — this replaces the old hardcoded binary scores[1] > scores[0] mapping.
func ClassPrediction(scores []float64, labels []string) Prediction {
	if len(scores) == 0 {
		return Prediction{Class: -1, Scores: scores}
	}
	best := 0
	for i, s := range scores {
		if s > scores[best] {
			best = i
		}
	}
	label := "class" + strconv.Itoa(best)
	if best < len(labels) && labels[best] != "" {
		label = labels[best]
	}
	return Prediction{Label: label, Class: best, Scores: scores}
}

// TextCodec serves string -> score-vector pipelines with the wire format
// {"text": "..."} / {"texts": ["...", ...]} and Prediction responses
// labeled over Labels.
type TextCodec struct {
	Labels []string
}

// DecodeRequest implements Codec.
func (c TextCodec) DecodeRequest(body []byte) (string, error) {
	var req struct {
		Text *string `json:"text"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return "", fmt.Errorf("bad JSON: %w", err)
	}
	if req.Text == nil {
		return "", fmt.Errorf(`missing "text" field`)
	}
	return *req.Text, nil
}

// DecodeBatch implements Codec.
func (c TextCodec) DecodeBatch(body []byte) ([]string, error) {
	var req struct {
		Texts []string `json:"texts"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("bad JSON: %w", err)
	}
	if len(req.Texts) == 0 {
		return nil, fmt.Errorf(`missing or empty "texts" field`)
	}
	return req.Texts, nil
}

// Response implements Codec.
func (c TextCodec) Response(out []float64) any { return ClassPrediction(out, c.Labels) }

// VectorCodec serves dense-vector pipelines (e.g. speech features) with
// the wire format {"vector": [...]} / {"vectors": [[...], ...]}.
type VectorCodec struct {
	Labels []string
	// Dim, when positive, validates the input dimensionality at decode
	// time so shape errors surface as 400s instead of pipeline panics.
	Dim int
}

// DecodeRequest implements Codec.
func (c VectorCodec) DecodeRequest(body []byte) ([]float64, error) {
	s := scanner{buf: body}
	var v []float64
	for ok := s.open('{', '}'); ok; ok = s.next('}') {
		if string(s.key()) == "vector" {
			v = s.floats()
		} else {
			s.skip()
		}
	}
	if err := s.end(); err != nil {
		return nil, err
	}
	return c.check(v)
}

// DecodeBatch implements Codec. The rows of a batch are slices of one
// array.
func (c VectorCodec) DecodeBatch(body []byte) ([][]float64, error) {
	s := scanner{buf: body}
	var rows [][]float64
	for ok := s.open('{', '}'); ok; ok = s.next('}') {
		if string(s.key()) != "vectors" {
			s.skip()
			continue
		}
		rows = rows[:0]
		for ok := s.open('[', ']'); ok; ok = s.next(']') {
			row := s.floats()
			if rows == nil && c.Dim > 0 {
				// The first row sized s.flat for the whole batch, and this
				// many rows of Dim fit it.
				rows = make([][]float64, 0, cap(s.flat)/c.Dim)
			}
			rows = append(rows, row)
		}
	}
	if err := s.end(); err != nil {
		return nil, err
	}
	if err := c.checkBatch(rows); err != nil {
		return nil, err
	}
	return rows, nil
}

// checkBatch is check for every row of a batch, which must also share
// one length: a route that declares no Dim still serves a pipeline of
// one input width, and a ragged batch would reach it as a 500.
func (c VectorCodec) checkBatch(rows [][]float64) error {
	if len(rows) == 0 {
		return fmt.Errorf(`missing or empty "vectors" field`)
	}
	for i, v := range rows {
		if _, err := c.check(v); err != nil {
			return fmt.Errorf("vector %d: %w", i, err)
		}
		if len(v) != len(rows[0]) {
			return fmt.Errorf("vector %d has %d dims, vector 0 has %d", i, len(v), len(rows[0]))
		}
	}
	return nil
}

func (c VectorCodec) check(v []float64) ([]float64, error) {
	if len(v) == 0 {
		return nil, fmt.Errorf(`missing or empty "vector" field`)
	}
	if c.Dim > 0 && len(v) != c.Dim {
		return nil, fmt.Errorf("vector has %d dims, route expects %d", len(v), c.Dim)
	}
	return v, nil
}

// Response implements Codec.
func (c VectorCodec) Response(out []float64) any { return ClassPrediction(out, c.Labels) }

// ImageCodec serves image pipelines with the wire format
// {"width": W, "height": H, "channels": C, "pixels": [...]} (planar,
// channels defaulting to 1) and {"images": [{...}, ...]} for batches.
type ImageCodec struct {
	Labels []string
}

// DecodeRequest implements Codec.
func (c ImageCodec) DecodeRequest(body []byte) (*keystone.Image, error) {
	s := scanner{buf: body}
	im := s.image()
	err := s.end()
	if err == nil {
		err = checkImage(im)
	}
	if err != nil {
		return nil, err
	}
	return im, nil
}

// DecodeBatch implements Codec. The pixels of a batch's images are
// slices of one array.
func (c ImageCodec) DecodeBatch(body []byte) ([]*keystone.Image, error) {
	s := scanner{buf: body}
	var ims []*keystone.Image
	for ok := s.open('{', '}'); ok; ok = s.next('}') {
		if string(s.key()) != "images" {
			s.skip()
			continue
		}
		ims = ims[:0]
		for ok := s.open('[', ']'); ok; ok = s.next(']') {
			ims = append(ims, s.image())
		}
	}
	if err := s.end(); err != nil {
		return nil, err
	}
	if len(ims) == 0 {
		return nil, fmt.Errorf(`missing or empty "images" field`)
	}
	for i, im := range ims {
		if err := checkImage(im); err != nil {
			return nil, fmt.Errorf("image %d: %w", i, err)
		}
	}
	return ims, nil
}

// image consumes one image object, its members in any order. The result
// is unchecked: a member given twice counts as last given, so the shape
// is only known once the body has been read.
func (s *scanner) image() *keystone.Image {
	im := new(keystone.Image)
	for ok := s.open('{', '}'); ok; ok = s.next('}') {
		switch string(s.key()) {
		case "width":
			s.integer(&im.Width)
		case "height":
			s.integer(&im.Height)
		case "channels":
			s.integer(&im.Channels)
		case "pixels":
			im.Pix = s.floats()
		default:
			s.skip()
		}
	}
	return im
}

// checkImage defaults im's channels to 1 and checks its pixel count
// against its dimensions. The pixels were sized by what the body held,
// never by the dimensions it declared, so dimensions that overflow or
// promise more than was sent have cost nothing by the time they are
// refused here.
func checkImage(im *keystone.Image) error {
	if im.Channels == 0 {
		im.Channels = 1
	}
	w, h, ch := im.Width, im.Height, im.Channels
	if w <= 0 || h <= 0 || ch < 0 {
		return fmt.Errorf("invalid image dimensions %dx%dx%d", w, h, ch)
	}
	if h > math.MaxInt/w || ch > math.MaxInt/(w*h) {
		return fmt.Errorf("image dimensions %dx%dx%d overflow", w, h, ch)
	}
	if len(im.Pix) != w*h*ch {
		return fmt.Errorf("image %dx%dx%d needs %d pixels, got %d", w, h, ch, w*h*ch, len(im.Pix))
	}
	return nil
}

// Response implements Codec.
func (c ImageCodec) Response(out []float64) any { return ClassPrediction(out, c.Labels) }

// JSONCodec is the generic fallback for arbitrary record types: requests
// are {"input": <I as JSON>} / {"inputs": [...]}, responses
// {"output": <O as JSON>}. Use it for pipelines whose types have natural
// JSON forms and no classification semantics.
type JSONCodec[I, O any] struct{}

// DecodeRequest implements Codec.
func (JSONCodec[I, O]) DecodeRequest(body []byte) (I, error) {
	var zero I
	var req struct {
		Input json.RawMessage `json:"input"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return zero, fmt.Errorf("bad JSON: %w", err)
	}
	if len(req.Input) == 0 {
		return zero, fmt.Errorf(`missing "input" field`)
	}
	var in I
	if err := json.Unmarshal(req.Input, &in); err != nil {
		return zero, fmt.Errorf(`bad "input": %w`, err)
	}
	return in, nil
}

// DecodeBatch implements Codec.
func (JSONCodec[I, O]) DecodeBatch(body []byte) ([]I, error) {
	var req struct {
		Inputs []json.RawMessage `json:"inputs"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("bad JSON: %w", err)
	}
	if len(req.Inputs) == 0 {
		return nil, fmt.Errorf(`missing or empty "inputs" field`)
	}
	out := make([]I, len(req.Inputs))
	for i, raw := range req.Inputs {
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			return nil, fmt.Errorf("input %d: %w", i, err)
		}
	}
	return out, nil
}

// Response implements Codec.
func (JSONCodec[I, O]) Response(out O) any {
	return struct {
		Output O `json:"output"`
	}{Output: out}
}
