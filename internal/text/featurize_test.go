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
			// The fit: NumFeatures cuts through ties of equal counts, and
			// 0 and 1<<20 keep every term.
			for _, k := range []int{1, 5, 17, 0, 1 << 20} {
				checkFit(t, p.chain, k, featurizeDocs)
			}
			bad := engine.FromSlice([]any{"doc", 42}, 1)
			_, est := (&CommonSparseFeatures{NumFeatures: 4}).FuseChain(p.chain)
			got := panicOf(func() { est.Fit(engine.NewContext(1), func() *engine.Collection { return bad }, nil) })
			if want := panicOf(func() { engine.NewContext(1).Map(bad, p.chain[0].Apply) }); got == nil || got != want {
				t.Errorf("non-string record in the fit: panic %v, want %v", got, want)
			}
		})
	}
}

// checkFit pins the fused fit to the unfused one on docs, in three
// partitions: CommonSparseFeatures' fused form fit on the documents gives
// a vocabulary reflect.DeepEqual to CommonSparseFeatures fit on the
// chain's term frequencies, and the fused apply of that vocabulary, a
// partition at a time, gives the training rows the chain and the
// vocabulary give record by record, before and after the encode and
// decode that ship it to dist workers.
func checkFit(t *testing.T, chain []core.TransformOp, numFeatures int, docs []string) {
	t.Helper()
	recs, tfs := make([]any, len(docs)), make([]any, len(docs))
	for i, doc := range docs {
		recs[i] = doc
		var tf any = doc
		for _, op := range chain {
			tf = op.Apply(tf)
		}
		tfs[i] = tf
	}
	ctx := engine.NewContext(2)
	fetch := func(items []any) core.Fetch {
		return func() *engine.Collection { return engine.FromSlice(items, 3) }
	}
	est := &CommonSparseFeatures{NumFeatures: numFeatures}
	want := est.Fit(ctx, fetch(tfs), nil).(*Vocabulary)
	n, fused := est.FuseChain(chain)
	if n != len(chain) {
		t.Fatalf("CommonSparseFeatures absorbs %d of the %d-operator chain", n, len(chain))
	}
	got := fused.Fit(ctx, fetch(recs), nil).(*Vocabulary)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("NumFeatures %d: fused fit %v, want %v", numFeatures, got, want)
	}
	fusedOp := core.Fuse(got, chain)
	kind, state, err := core.EncodeOp(fusedOp)
	if err != nil {
		t.Fatal(err)
	}
	shipped, err := core.DecodeOp(kind, state)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []core.TransformOp{fusedOp, shipped} {
		rows := core.MapOp(ctx, fetch(recs)(), op).Collect()
		for i, tf := range tfs {
			if want := want.Apply(tf); !reflect.DeepEqual(rows[i], want) {
				t.Errorf("NumFeatures %d, %q: training row %+v, want %+v", numFeatures, docs[i], rows[i], want)
			}
		}
	}
}

// TestFitFeaturizeAllocs is the fit featuriser's allocation budget: once
// a partition's dictionary holds a document's n-grams, counting the
// document allocates nothing, because the byte scan reuses the
// partition's scratch and a lookup builds no string.
func TestFitFeaturizeAllocs(t *testing.T) {
	docs := workload.AmazonReviews(200, 1, 1).Data.Collect()
	_, est := (&CommonSparseFeatures{NumFeatures: 100}).FuseChain(newFig2(1, 2, nil).chain)
	f := est.(*fusedCommonSparse)
	d, s := newTermCounts(), &scratch{}
	count := func() {
		for i, doc := range docs {
			f.count(d, s, doc, int32(i))
		}
	}
	count()
	if perDoc := testing.AllocsPerRun(10, count) / float64(len(docs)); perDoc != 0 {
		t.Errorf("counting a known document allocates %.2f times, want 0", perDoc)
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

// FuzzFitFeaturize pins the fused fit to the unfused chain on arbitrary
// documents: a corpus of two of them, repeated and joined so that terms
// recur and counts tie, under every n-gram range of the table test and
// NumFeatures from 0 (every term) to 7.
func FuzzFitFeaturize(f *testing.F) {
	chains := make([][]core.TransformOp, len(featurizeRanges))
	for i, r := range featurizeRanges {
		chains[i] = newFig2(r[0], r[1], nil).chain
	}
	for i, doc := range featurizeDocs {
		f.Add(doc, featurizeDocs[(i+1)%len(featurizeDocs)], uint8(i), uint8(i))
	}
	f.Fuzz(func(t *testing.T, a, b string, r, k uint8) {
		checkFit(t, chains[int(r)%len(chains)], int(k)%8, []string{a, b, a, a + " " + b})
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
