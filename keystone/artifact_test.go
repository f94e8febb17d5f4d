package keystone

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"keystoneml/internal/core"
	"keystoneml/internal/text"
)

// encoded serializes the pipeline behind a served harness.
func (s *servedPipeline[I]) encoded(t *testing.T) []byte {
	t.Helper()
	data, err := Encode(s.f)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return data
}

// reload round-trips the pipeline through the artifact format and wraps
// the result in the same harness over the same test records.
func (s *servedPipeline[I]) reload(t *testing.T) served {
	t.Helper()
	f2, err := Decode[I, []float64](s.encoded(t))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return &servedPipeline[I]{f: f2, test: s.test}
}

// shape returns the pipeline's structural fingerprint.
func (s *servedPipeline[I]) shape(t *testing.T) string {
	t.Helper()
	d, err := s.f.ShapeDigest()
	if err != nil {
		t.Fatalf("shape digest: %v", err)
	}
	return d
}

type reloadable interface {
	served
	encoded(t *testing.T) []byte
	reload(t *testing.T) served
	shape(t *testing.T) string
}

// TestArtifactRoundTrip is the persistence contract: for every
// evaluation pipeline, a fitted pipeline encoded to the artifact format
// and decoded back must produce bit-identical predictions to the
// in-memory original, on both the single-record and batch paths, and
// must keep the same shape digest.
func TestArtifactRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, c := range evaluationPipelines() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			s := c.fit(t).(reloadable)
			recs := s.testRecords()
			want := s.oracle(recs)

			loaded := s.reload(t)
			got, err := loaded.hot(context.Background(), recs)
			if err != nil {
				t.Fatalf("TransformBatch through loaded artifact: %v", err)
			}
			assertSameScores(t, c.name+"/loaded-batch", want, got)
			for i, r := range recs {
				one, err := loaded.hotOne(context.Background(), r)
				if err != nil {
					t.Fatalf("Transform record %d through loaded artifact: %v", i, err)
				}
				assertSameScores(t, fmt.Sprintf("%s/loaded-one[%d]", c.name, i), want[i:i+1], []any{one})
			}

			if orig, back := s.shape(t), loaded.(reloadable).shape(t); orig != back {
				t.Fatalf("shape digest changed across round-trip: %s vs %s", orig, back)
			}
		})
	}
}

// plainEst is an estimator without its fused form: it fits exactly as
// the estimator it wraps, but offers the optimizer no chain to absorb.
type plainEst struct{ core.EstimatorOp }

// TestTextFitFusedEncodesAsUnfused: TextPipeline's fit runs the Figure 2
// chain fused into CommonSparseFeatures and its apply, yet Encode of the
// fitted pipeline is byte-identical to Encode of the same pipeline fit
// unfused, so the persisted plan is the logical one.
func TestTextFitFusedEncodesAsUnfused(t *testing.T) {
	train := SyntheticReviews(160, 1)
	fit := func(p *Pipeline[string, []float64]) (*Fitted[string, []float64], []string) {
		t.Helper()
		f, err := p.Fit(context.Background(), train.Records, train.Labels, quickOpts()...)
		if err != nil {
			t.Fatalf("fit: %v", err)
		}
		var ran []string
		for _, r := range f.TrainReport() {
			ran = append(ran, r.Name)
		}
		return f, ran
	}
	fused, fusedRan := fit(TextPipeline(TextConfig{NumFeatures: 800, Iterations: 8}))
	docs := Input[string]().Then(Trim()).Then(LowerCase())
	tf := Then(Then(Then(docs, Tokenizer()), NGrams(1, 2)), TermFrequency())
	csf := wrapEst[map[string]float64, any](plainEst{&text.CommonSparseFeatures{NumFeatures: 800}}, false)
	unfused, unfusedRan := fit(ThenEstimator(ThenEstimator(tf, csf), LogisticRegression(8)))

	if !slices.Contains(fusedRan, "text.commonsparse[fused]") || slices.Contains(fusedRan, "text.tokenize") {
		t.Errorf("the fit did not fuse: it ran %q", fusedRan)
	}
	if !slices.Contains(unfusedRan, "text.tokenize") {
		t.Errorf("the plain estimator's fit fused: it ran %q", unfusedRan)
	}
	a, err := Encode(fused)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(unfused)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("the fused fit encodes to %d bytes that differ from the unfused fit's %d", len(a), len(b))
	}
}

// TestTextArtifactKeepsUnfusedSteps: the Figure 2 chain runs fused into
// the vocabulary, but the artifact records every operator; the decoded
// pipeline fuses again and predicts bit for bit as the fitted one. A
// fused record costs about 5 allocations and the unfused chain about 70;
// the bound leaves room for the race detector, which drops pooled
// scratch at random.
func TestTextArtifactKeepsUnfusedSteps(t *testing.T) {
	s := fitText(t).(*servedPipeline[string])
	steps, err := s.f.inner.StepRecords()
	if err != nil {
		t.Fatal(err)
	}
	const golden = "0:source::[];1:transform:core.func:[0];2:transform:core.func:[1];3:transform:core.func:[2];" +
		"4:transform:core.func:[3];5:transform:core.func:[4];6:transform:model.vocab:[5];7:transform:model.linear:[6];"
	if got := core.ShapeSpec(steps); got != golden {
		t.Fatalf("ShapeSpec = %s, want %s", got, golden)
	}
	// The solver behind the last step is the optimizer's choice.
	var names []string
	for _, r := range steps[:7] {
		names = append(names, r.Name)
	}
	wantNames := []string{"", "text.trim", "text.lowercase", "text.tokenize", "text.ngrams[1-2]", "text.termfreq", "model.vocab"}
	if !reflect.DeepEqual(names, wantNames) {
		t.Errorf("persisted steps %q, want %q", names, wantNames)
	}

	decoded, err := Decode[string, []float64](s.encoded(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range s.test {
		want, err := s.f.Transform(context.Background(), doc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decoded.Transform(context.Background(), doc)
		if err != nil || !sameBits(got, want) {
			t.Fatalf("%q: decoded scores %v (%v), fitted %v", doc, got, err, want)
		}
	}
	for name, f := range map[string]*Fitted[string, []float64]{"fitted": s.f, "decoded": decoded} {
		allocs := testing.AllocsPerRun(50, func() { _, _ = f.Transform(context.Background(), s.test[0]) })
		if allocs > 20 {
			t.Errorf("%s: %.1f allocations per record; the chain did not fuse", name, allocs)
		}
	}
}

// TestArtifactSaveLoadFile exercises the file-based path, including the
// type check: an artifact saved as string -> []float64 must refuse to
// load under different type parameters.
func TestArtifactSaveLoadFile(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := fitText(t).(*servedPipeline[string])
	path := filepath.Join(t.TempDir(), "sub", "text.ksart")
	if err := Save(s.f, path); err != nil {
		t.Fatalf("save: %v", err)
	}
	loaded, err := Load[string, []float64](path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	want, err := s.f.TransformBatch(context.Background(), s.test)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.TransformBatch(context.Background(), s.test)
	if err != nil {
		t.Fatalf("transform through loaded: %v", err)
	}
	for i := range want {
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				t.Fatalf("record %d dim %d differs after save/load: %g vs %g", i, j, want[i][j], got[i][j])
			}
		}
	}

	if _, err := Load[[]float64, []float64](path); !errors.Is(err, ErrArtifactType) {
		t.Fatalf("loading with wrong input type = %v, want ErrArtifactType", err)
	}
	if _, err := Load[string, string](path); !errors.Is(err, ErrArtifactType) {
		t.Fatalf("loading with wrong output type = %v, want ErrArtifactType", err)
	}
	if _, err := Load[string, []float64](filepath.Join(t.TempDir(), "missing.ksart")); err == nil {
		t.Fatal("loading a missing file must error")
	}
}

// TestArtifactRejectsDamage covers the integrity and version gates: any
// bit damage fails with ErrArtifactCorrupt, and a format-version bump
// fails with ErrArtifactVersion (checked before the digest, so version
// skew is reported as such rather than as corruption).
func TestArtifactRejectsDamage(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := fitText(t).(reloadable)
	good := s.encoded(t)

	damage := func(mut func([]byte) []byte) []byte {
		cp := make([]byte, len(good))
		copy(cp, good)
		return mut(cp)
	}

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrArtifactCorrupt},
		{"truncated", good[:len(good)/2], ErrArtifactCorrupt},
		{"bad magic", damage(func(b []byte) []byte { b[0] ^= 0xff; return b }), ErrArtifactCorrupt},
		{"flipped payload byte", damage(func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b }), ErrArtifactCorrupt},
		{"flipped trailer byte", damage(func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }), ErrArtifactCorrupt},
		{"future version", damage(func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[8:12], ArtifactFormatVersion+1)
			return b
		}), ErrArtifactVersion},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Decode[string, []float64](c.data); !errors.Is(err, c.want) {
				t.Fatalf("Decode(%s) = %v, want %v", c.name, err, c.want)
			}
		})
	}

	// The pristine bytes must still decode — the damage helper must not
	// have mutated the original.
	if _, err := Decode[string, []float64](good); err != nil {
		t.Fatalf("pristine artifact no longer decodes: %v", err)
	}
}

func init() {
	// Registered at package init so both the encode and decode side of
	// TestArtifactCustomOp see it, mirroring how applications register
	// custom persistable ops.
	RegisterStatelessOp("test.double", func(x []float64) []float64 {
		out := make([]float64, len(x))
		for i, v := range x {
			out[i] = 2 * v
		}
		return out
	})
}

// TestArtifactCustomOp: a custom stateless op registered via
// RegisterStatelessOp round-trips; an unregistered ad-hoc closure fails
// Encode with a diagnosable error instead of producing an artifact that
// cannot load.
func TestArtifactCustomOp(t *testing.T) {
	train := SyntheticDenseVectors(40, 6, 3, 5)
	build := func(opName string) *Fitted[[]float64, []float64] {
		p := Then(Input[[]float64](), NewOp(opName, func(x []float64) []float64 {
			out := make([]float64, len(x))
			for i, v := range x {
				out[i] = 2 * v
			}
			return out
		}))
		f, err := ThenEstimator(p, LinearSolver(4)).Fit(context.Background(), train.Records, train.Labels, quickOpts()...)
		if err != nil {
			t.Fatalf("fit: %v", err)
		}
		return f
	}

	f := build("test.double")
	data, err := Encode(f)
	if err != nil {
		t.Fatalf("encode with registered op: %v", err)
	}
	loaded, err := Decode[[]float64, []float64](data)
	if err != nil {
		t.Fatalf("decode with registered op: %v", err)
	}
	want, err := f.Transform(context.Background(), train.Records[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Transform(context.Background(), train.Records[0])
	if err != nil {
		t.Fatalf("transform through loaded: %v", err)
	}
	for j := range want {
		if want[j] != got[j] {
			t.Fatalf("dim %d differs: %g vs %g", j, want[j], got[j])
		}
	}

	if _, err := Encode(build("test.unregistered")); err == nil {
		t.Fatal("encoding a pipeline with an unregistered closure op must error")
	}
}
