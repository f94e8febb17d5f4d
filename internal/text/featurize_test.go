package text

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"unicode/utf8"

	"keystoneml/internal/core"
	"keystoneml/internal/engine"
	"keystoneml/internal/linalg"
	"keystoneml/internal/solvers"
	"keystoneml/internal/workload"
)

// featurizeDocs are the documents the fused featuriser is pinned to the
// unfused chain on: non-ASCII case and space rules, invalid UTF-8, the
// bytes TrimSpace trims but the tokenizer keeps, punctuation runs, empty
// documents, a token holding '_' that equals a bigram, upper case and
// out-of-vocabulary terms.
var featurizeDocs = []string{
	"The QUICK Brown fox",
	"\u0130stanbul \u0130S big",
	"\u212Aelvin sign K",
	"\u00a0nbsp at the ends\u00a0",
	"\u0085next line\u0085",
	"bad \xff utf8", "\xc3", "cut \xe2\x82",
	"\r\v\fedge\r\v\f", "in\rside the\vdoc\fhere", " \r. a \r", "\v",
	`wow!!! ... really?!?; yes:: "quoted" 'single' it's`,
	"", "   ", "\t\n\v\f\r ", `.,;:!?"'`,
	"a_b a b", "a_b_c a b c a_b",
	"oov words zoov and oov_b",
	"fox fox fox the the FOX",
}

var featurizeRanges = [][2]int{{1, 1}, {1, 2}, {2, 3}, {1, 3}}

// countingOp counts the records that reach an operator.
type countingOp struct {
	core.TransformOp
	calls atomic.Int64
}

func (c *countingOp) Apply(in any) any {
	c.calls.Add(1)
	return c.TransformOp.Apply(in)
}

// fig2 is the Figure 2 chain over one n-gram range, a vocabulary of every
// term it yields on corpus except those containing "oov", and a random
// linear model over that vocabulary. trim counts the records that take
// the unfused path.
type fig2 struct {
	trim  *countingOp
	chain []core.TransformOp
	vocab *Vocabulary
	model *solvers.LinearMapper
}

func newFig2(lo, hi int, corpus []string) *fig2 {
	trim := &countingOp{TransformOp: Trim()}
	p := &fig2{trim: trim, chain: []core.TransformOp{trim, LowerCase(), Tokenizer(), NGrams(lo, hi), TermFrequency()}}
	var terms []string
	for _, doc := range corpus {
		for term := range p.terms(doc) {
			if !strings.Contains(term, "oov") {
				terms = append(terms, term)
			}
		}
	}
	slices.Sort(terms)
	terms = slices.Compact(terms)
	p.vocab = &Vocabulary{Index: make(map[string]int, len(terms)), Dim: max(len(terms), 1)}
	for i, term := range terms {
		p.vocab.Index[term] = len(terms) - 1 - i // reversed, so index order is not term order
	}
	p.model = &solvers.LinearMapper{W: linalg.NewRNG(uint64(10*lo+hi)).GaussianMatrix(p.vocab.Dim, 2)}
	return p
}

// terms runs the unfused chain up to the vocabulary.
func (p *fig2) terms(rec any) map[string]float64 {
	for _, op := range p.chain {
		rec = op.Apply(rec)
	}
	return rec.(map[string]float64)
}

// row is the oracle: the unfused chain, then the vocabulary.
func (p *fig2) row(rec any) any { return p.vocab.Apply(p.terms(rec)) }

// fitted compiles source → chain → vocabulary [→ model] as transform
// steps, the shape a loaded artifact has.
func (p *fig2) fitted(withModel bool) *core.Fitted {
	g := core.NewGraph()
	n := g.Source
	for _, op := range p.chain {
		n = g.AddTransform(op, n)
	}
	n = g.AddTransform(p.vocab, n)
	if withModel {
		g.AddTransform(p.model, n)
	}
	return core.NewFitted(g, nil, engine.NewContext(1))
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

func panicOf(fn func()) (p any) {
	defer func() { p = recover() }()
	fn()
	return nil
}

// TestFeaturizeMatchesChain pins the fused featuriser to the unfused
// chain: the same row (reflect.DeepEqual, nil slices of an empty row
// included) and the same scores bit for bit, with every non-ASCII
// document, and only those, taking the unfused path.
func TestFeaturizeMatchesChain(t *testing.T) {
	for _, r := range featurizeRanges {
		t.Run(fmt.Sprintf("ngrams[%d-%d]", r[0], r[1]), func(t *testing.T) {
			p := newFig2(r[0], r[1], featurizeDocs)
			rows, scores := p.fitted(false), p.fitted(true)
			for _, doc := range featurizeDocs {
				before := p.trim.calls.Load()
				got := rows.TransformOne(doc)
				if fused := p.trim.calls.Load() == before; fused != isASCII(doc) {
					t.Errorf("%q: fused path %v, want %v", doc, fused, isASCII(doc))
				}
				if want := p.row(doc); !reflect.DeepEqual(got, want) {
					t.Errorf("%q: row %+v, want %+v", doc, got, want)
				}
				one := scores.TransformOne(doc).([]float64)
				want := scores.Apply(engine.FromSlice([]any{doc}, 1)).Collect()[0].([]float64)
				for j := range want {
					if math.Float64bits(one[j]) != math.Float64bits(want[j]) {
						t.Errorf("%q: score %d is %v, want %v", doc, j, one[j], want[j])
					}
				}
			}
			if got, want := panicOf(func() { rows.TransformOne(42) }), panicOf(func() { p.row(42) }); got == nil || got != want {
				t.Errorf("non-string record: panic %v, want %v", got, want)
			}
		})
	}
}

// TestFeaturizeSharedTermFrequencyDoesNotFuse: when something besides
// the vocabulary reads the term frequencies, the chain stays unfused and
// outputs still match Apply.
func TestFeaturizeSharedTermFrequencyDoesNotFuse(t *testing.T) {
	p := newFig2(1, 2, featurizeDocs)
	g := core.NewGraph()
	n := g.Source
	for _, op := range p.chain {
		n = g.AddTransform(op, n)
	}
	scores := g.AddTransform(p.model, g.AddTransform(p.vocab, n))
	size := g.AddTransform(core.NewTransform("terms", func(in any) any {
		return []float64{float64(len(in.(map[string]float64)))}
	}), n)
	g.AddGather([]*core.Node{scores, size})
	f := core.NewFitted(g, nil, engine.NewContext(1))
	for _, doc := range featurizeDocs {
		before := p.trim.calls.Load()
		got := f.TransformOne(doc)
		if p.trim.calls.Load() == before {
			t.Fatalf("%q: the chain fused though its term frequencies have a second reader", doc)
		}
		if want := f.Apply(engine.FromSlice([]any{doc}, 1)).Collect()[0]; !reflect.DeepEqual(got, want) {
			t.Errorf("%q: %v, want %v", doc, got, want)
		}
	}
}

// FuzzFeaturize pins the fused featuriser to the unfused chain on
// arbitrary documents, under every n-gram range of the table test.
func FuzzFeaturize(f *testing.F) {
	fused := make([]*core.Fitted, len(featurizeRanges))
	oracles := make([]*fig2, len(featurizeRanges))
	for i, r := range featurizeRanges {
		oracles[i] = newFig2(r[0], r[1], featurizeDocs)
		fused[i] = oracles[i].fitted(false)
	}
	for i, doc := range featurizeDocs {
		f.Add(doc, uint8(i))
	}
	f.Fuzz(func(t *testing.T, doc string, r uint8) {
		k := int(r) % len(featurizeRanges)
		if got, want := fused[k].TransformOne(doc), oracles[k].row(doc); !reflect.DeepEqual(got, want) {
			t.Errorf("%q under ngrams%v: row %+v, want %+v", doc, featurizeRanges[k], got, want)
		}
	})
}

var featurizeSink any

// BenchmarkFeaturize is the per-layer row for the Figure 2 featuriser:
// one op is one e2e-shaped review (the text workloads' generator, a
// 5 000-term vocabulary), fused against the unfused chain.
func BenchmarkFeaturize(b *testing.B) {
	docs := workload.AmazonReviews(2000, 1, 1).Data.Collect()
	p := newFig2(1, 2, nil)
	tfs := make([]any, len(docs))
	for i, doc := range docs {
		tfs[i] = p.terms(doc)
	}
	data := engine.FromSlice(tfs, 1)
	p.vocab = (&CommonSparseFeatures{NumFeatures: 5000}).
		Fit(engine.NewContext(1), func() *engine.Collection { return data }, nil).(*Vocabulary)
	fused := p.fitted(false)
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			featurizeSink = fused.TransformOne(docs[i%len(docs)])
		}
	})
	b.Run("chain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			featurizeSink = p.row(docs[i%len(docs)])
		}
	})
}
