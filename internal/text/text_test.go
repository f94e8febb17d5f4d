package text

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"keystoneml/internal/core"
	"keystoneml/internal/engine"
	"keystoneml/internal/linalg"
)

func TestTrimAndLowerCase(t *testing.T) {
	if got := Trim().Apply("  Hello ").(string); got != "Hello" {
		t.Errorf("Trim = %q", got)
	}
	if got := LowerCase().Apply("HeLLo").(string); got != "hello" {
		t.Errorf("LowerCase = %q", got)
	}
}

func TestTokenizer(t *testing.T) {
	toks := Tokenizer().Apply("Hello, world! It's  fine.").([]string)
	want := []string{"Hello", "world", "It", "s", "fine"}
	if len(toks) != len(want) {
		t.Fatalf("tokens = %v, want %v", toks, want)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Fatalf("tokens = %v, want %v", toks, want)
		}
	}
	if got := Tokenizer().Apply("").([]string); len(got) != 0 {
		t.Errorf("empty doc tokens = %v", got)
	}
}

func TestNGrams(t *testing.T) {
	grams := NGrams(1, 2).Apply([]string{"a", "b", "c"}).([]string)
	want := []string{"a", "b", "c", "a_b", "b_c"}
	if len(grams) != len(want) {
		t.Fatalf("ngrams = %v", grams)
	}
	for i := range want {
		if grams[i] != want[i] {
			t.Fatalf("ngrams = %v, want %v", grams, want)
		}
	}
}

func TestNGramsInvalidRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NGrams(2, 1)
}

// TestTermFrequency: term frequencies are binary, and the operator an
// artifact decodes from the name computes the same.
func TestTermFrequency(t *testing.T) {
	op := TermFrequency()
	kind, state, err := core.EncodeOp(op)
	if err != nil {
		t.Fatal(err)
	}
	back, err := core.DecodeOp(kind, state)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"a": 1, "b": 1}
	for name, op := range map[string]core.TransformOp{"built": op, "decoded": back} {
		if got := op.Apply([]string{"a", "b", "a"}); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: term frequencies = %v, want %v", name, got, want)
		}
	}
}

// TestVocabularyDecodeValidatesIndex: a decoded vocabulary must be what
// a fit makes, its terms numbered one to one into [0, Dim) with Dim =
// max(terms, 1); anything else is an IndexError at decode, not a wrong
// row or a panic at predict.
func TestVocabularyDecodeValidatesIndex(t *testing.T) {
	for _, c := range []struct {
		name  string
		index map[string]int
		dim   int
		want  *IndexError
	}{
		{"shared, narrow", map[string]int{"a": 0, "b": 0}, 1, &IndexError{Terms: 2, Dim: 1}},
		{"shared", map[string]int{"a": 0, "b": 0, "c": 2}, 3, &IndexError{Terms: 3, Dim: 3, Term: "b", Index: 0, Other: "a"}},
		{"too large", map[string]int{"a": 0, "b": 2}, 2, &IndexError{Terms: 2, Dim: 2, Term: "b", Index: 2}},
		{"negative", map[string]int{"a": -1}, 1, &IndexError{Terms: 1, Dim: 1, Term: "a", Index: -1}},
		{"wide", map[string]int{"a": 1, "b": 0}, 3, &IndexError{Terms: 2, Dim: 3}},
		{"no dimension", nil, 0, &IndexError{Dim: 0}},
	} {
		state, err := (&Vocabulary{Index: c.index, Dim: c.dim}).EncodeState()
		if err != nil {
			t.Fatal(err)
		}
		_, err = core.DecodeOp("model.vocab", state)
		var got *IndexError
		if !errors.As(err, &got) || *got != *c.want {
			t.Errorf("%s: decode error %v, want %v", c.name, err, c.want)
		}
	}
	good := &Vocabulary{Index: map[string]int{"a": 1, "b": 0}, Dim: 2}
	state, err := good.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	if back, err := core.DecodeOp("model.vocab", state); err != nil || !reflect.DeepEqual(back, good) {
		t.Errorf("valid vocabulary decoded as %v, %v", back, err)
	}
}

// TestVocabularyEncodeIsDeterministic: a vocabulary encodes to the same
// bytes every time, so an artifact's content address depends on its
// model alone, and the map form of earlier artifacts still decodes.
func TestVocabularyEncodeIsDeterministic(t *testing.T) {
	v := &Vocabulary{Index: map[string]int{}, Dim: 300}
	for i := 0; i < v.Dim; i++ {
		v.Index[fmt.Sprintf("term%d", i)] = (i * 7) % v.Dim
	}
	first, err := v.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if again, _ := v.EncodeState(); !bytes.Equal(again, first) {
			t.Fatal("the same vocabulary encoded to different bytes")
		}
	}
	type mapForm struct {
		Index map[string]int
		Dim   int
	}
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(mapForm{v.Index, v.Dim}); err != nil {
		t.Fatal(err)
	}
	for _, state := range [][]byte{first, legacy.Bytes()} {
		if back, err := core.DecodeOp("model.vocab", state); err != nil || !reflect.DeepEqual(back, v) {
			t.Errorf("decoded %v, %v; want %v", back, err, v)
		}
	}
}

// TestVocabularyApplyRows: rows are index-sorted, drop zero weights and
// out-of-vocabulary terms, and an empty row has nil slices.
func TestVocabularyApplyRows(t *testing.T) {
	v := &Vocabulary{Index: map[string]int{"a": 2, "b": 0, "c": 1, "d": 3}, Dim: 4}
	for _, c := range []struct {
		tf   map[string]float64
		want *linalg.SparseVector
	}{
		{map[string]float64{"a": 1, "b": 2, "d": 0, "zz": 5}, &linalg.SparseVector{Dim: 4, Idx: []int{0, 2}, Val: []float64{2, 1}}},
		{map[string]float64{"zz": 1, "d": 0}, &linalg.SparseVector{Dim: 4}},
		{map[string]float64{}, &linalg.SparseVector{Dim: 4}},
	} {
		if got := v.Apply(c.tf); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Apply(%v) = %+v, want %+v", c.tf, got, c.want)
		}
	}
}

func TestCommonSparseFeatures(t *testing.T) {
	docs := []any{
		map[string]float64{"the": 1, "cat": 1},
		map[string]float64{"the": 1, "dog": 1},
		map[string]float64{"the": 1, "cat": 1, "rare": 1},
	}
	data := engine.FromSlice(docs, 2)
	est := &CommonSparseFeatures{NumFeatures: 2}
	vocab := est.Fit(engine.NewContext(2), func() *engine.Collection { return data }, nil).(*Vocabulary)
	if vocab.Dim != 2 {
		t.Fatalf("vocab dim = %d, want 2", vocab.Dim)
	}
	// "the" (3) and "cat" (2) are the top-2 terms.
	if _, ok := vocab.Index["the"]; !ok {
		t.Error("'the' missing from vocabulary")
	}
	if _, ok := vocab.Index["cat"]; !ok {
		t.Error("'cat' missing from vocabulary")
	}
	if _, ok := vocab.Index["rare"]; ok {
		t.Error("'rare' should not be in a top-2 vocabulary")
	}
	sv := vocab.Apply(map[string]float64{"cat": 1, "rare": 1}).(*linalg.SparseVector)
	if sv.NNZ() != 1 {
		t.Errorf("featurized nnz = %d, want 1 (rare dropped)", sv.NNZ())
	}
	if sv.Dim != 2 {
		t.Errorf("featurized dim = %d", sv.Dim)
	}
}

func TestVocabularyDeterministicTieBreak(t *testing.T) {
	docs := []any{map[string]float64{"b": 1, "a": 1, "c": 1}}
	data := engine.FromSlice(docs, 1)
	fit := func() *Vocabulary {
		return (&CommonSparseFeatures{NumFeatures: 2}).
			Fit(engine.NewContext(1), func() *engine.Collection { return data }, nil).(*Vocabulary)
	}
	v1, v2 := fit(), fit()
	for term, idx := range v1.Index {
		if v2.Index[term] != idx {
			t.Fatal("vocabulary not deterministic under ties")
		}
	}
	// Alphabetical tie-break: a then b.
	if v1.Index["a"] != 0 || v1.Index["b"] != 1 {
		t.Errorf("tie-break order wrong: %v", v1.Index)
	}
}

func TestEndToEndTextPipelineChain(t *testing.T) {
	// The Figure 2 chain, each step's output the next step's record type,
	// runs end to end into sparse vectors.
	g := core.NewGraph()
	tf := g.Source
	for _, op := range []core.TransformOp{Trim(), LowerCase(), Tokenizer(), NGrams(1, 2), TermFrequency()} {
		tf = g.AddTransform(op, tf)
	}
	g.AddApplyModel(g.AddEstimator(&CommonSparseFeatures{NumFeatures: 100}, tf, false), tf)

	docs := []any{" The cat sat ", "the DOG ran", "a cat ran"}
	ex := core.NewExecutor(g, engine.NewContext(2), nil, engine.FromSlice(docs, 2), nil)
	_, out, _ := ex.Run()
	recs := out.Collect()
	if len(recs) != 3 {
		t.Fatalf("output records = %d", len(recs))
	}
	for _, r := range recs {
		if _, ok := r.(*linalg.SparseVector); !ok {
			t.Fatalf("output record type %T, want sparse vector", r)
		}
	}
}
