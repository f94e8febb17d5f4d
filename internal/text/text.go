// Package text implements the text featurization operators of the
// paper's Figure 2 pipeline: Trim, LowerCase, Tokenizer, NGramsFeaturizer,
// TermFrequency, and the CommonSparseFeatures estimator that selects the
// most frequent n-grams as a sparse vocabulary.
package text

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"keystoneml/internal/core"
	"keystoneml/internal/engine"
	"keystoneml/internal/linalg"
)

// Trim returns a transformer stripping leading/trailing whitespace.
func Trim() core.TransformOp {
	return core.TypedTransform("text.trim", strings.TrimSpace)
}

// LowerCase returns a transformer lower-casing documents.
func LowerCase() core.TransformOp {
	return core.TypedTransform("text.lowercase", strings.ToLower)
}

// Tokenizer returns a transformer splitting documents on whitespace and
// dropping punctuation-only tokens.
func Tokenizer() core.TransformOp {
	return core.TypedTransform("text.tokenize", func(doc string) []string {
		return strings.FieldsFunc(doc, isSeparator)
	})
}

// isSeparator reports whether the tokenizer splits on r. '\r', '\v' and
// '\f' are not separators: inside a document they stay in their token.
func isSeparator(r rune) bool {
	switch r {
	case ' ', '\t', '\n', '.', ',', '!', '?', ';', ':', '"', '\'':
		return true
	}
	return false
}

// NGrams returns a transformer expanding a token sequence into all
// n-grams for n in [lo, hi] (joined with '_'), the NGramsFeaturizer(lo to
// hi) of Figure 2.
func NGrams(lo, hi int) core.TransformOp {
	if lo < 1 || hi < lo {
		panic(fmt.Sprintf("text: invalid ngram range [%d,%d]", lo, hi))
	}
	return core.TypedTransform(fmt.Sprintf(ngramsName, lo, hi), func(tokens []string) []string {
		var out []string
		for n := lo; n <= hi; n++ {
			for i := 0; i+n <= len(tokens); i++ {
				out = append(out, strings.Join(tokens[i:i+n], "_"))
			}
		}
		return out
	})
}

// ngramsName is the name of NGrams(lo, hi): the range is part of it, so
// an artifact rebuilds the operator from the name alone.
const ngramsName = "text.ngrams[%d-%d]"

// ngramRange parses a name NGrams gives its operator.
func ngramRange(name string) (lo, hi int, ok bool) {
	if _, err := fmt.Sscanf(name, ngramsName, &lo, &hi); err != nil || lo < 1 || hi < lo {
		return 0, 0, false
	}
	return lo, hi, name == fmt.Sprintf(ngramsName, lo, hi)
}

// TermFrequency returns a transformer mapping n-grams to binary term
// frequencies: every distinct term weighs 1, the TermFrequency(x => 1) of
// Figure 2. It has no weight parameter because an artifact persists it by
// its name alone, which must therefore determine what it computes.
func TermFrequency() core.TransformOp {
	return core.TypedTransform("text.termfreq", func(terms []string) map[string]float64 {
		tf := make(map[string]float64, len(terms))
		for _, t := range terms {
			tf[t] = 1
		}
		return tf
	})
}

// Vocabulary is the fitted CommonSparseFeatures transformer: maps term-
// frequency maps to sparse vectors over the selected vocabulary. Index
// maps its terms one to one into [0, Dim).
type Vocabulary struct {
	Index map[string]int
	Dim   int
}

// Name implements core.TransformOp.
func (v *Vocabulary) Name() string { return "model.vocab" }

// Apply implements core.TransformOp. The row holds every in-vocabulary
// term of non-zero weight in index order; Index being one to one, no two
// terms share an entry.
func (v *Vocabulary) Apply(in any) any {
	tf, ok := in.(map[string]float64)
	if !ok {
		panic(fmt.Sprintf("text: vocabulary expects map[string]float64, got %T", in))
	}
	type entry struct {
		i int
		w float64
	}
	es := make([]entry, 0, len(tf))
	for term, w := range tf {
		if i, ok := v.Index[term]; ok && w != 0 {
			es = append(es, entry{i, w})
		}
	}
	slices.SortFunc(es, func(a, b entry) int { return cmp.Compare(a.i, b.i) })
	row := &linalg.SparseVector{Dim: v.Dim}
	if len(es) > 0 {
		row.Idx, row.Val = make([]int, len(es)), make([]float64, len(es))
		for k, e := range es {
			row.Idx[k], row.Val[k] = e.i, e.w
		}
	}
	return row
}

// CommonSparseFeatures is the estimator selecting the numFeatures most
// frequent terms across the corpus as the featurization vocabulary
// (CommonSparseFeatures(1e5) in Figure 2). Document frequency is counted
// distributively with one aggregation pass. Fed by the Figure 2 chain, it
// is a core.ChainEstimator: the optimizer's fit graph runs its fused form
// (FuseChain), which counts over interned n-gram ids in one byte scan per
// document and selects the same vocabulary, ties included.
type CommonSparseFeatures struct {
	NumFeatures int
}

// Name implements core.EstimatorOp.
func (c *CommonSparseFeatures) Name() string { return "text.commonsparse" }

// Fit implements core.EstimatorOp.
func (c *CommonSparseFeatures) Fit(ctx *engine.Context, data core.Fetch, labels core.Fetch) core.TransformOp {
	coll := data()
	counts := ctx.Aggregate(coll,
		func() any { return make(map[string]float64) },
		func(acc, item any) any {
			m := acc.(map[string]float64)
			for term, w := range item.(map[string]float64) {
				m[term] += w
			}
			return m
		},
		func(a, b any) any {
			x := a.(map[string]float64)
			for term, w := range b.(map[string]float64) {
				x[term] += w
			}
			return x
		},
	).(map[string]float64)

	all := make([]termCount, 0, len(counts))
	for t, n := range counts {
		all = append(all, termCount{t, n})
	}
	return c.vocabulary(all)
}

// termCount is one term's document frequency.
type termCount struct {
	term string
	c    float64
}

// vocabulary indexes the NumFeatures most frequent terms of all (every
// term when NumFeatures is not positive), by count descending and then
// term ascending for determinism.
func (c *CommonSparseFeatures) vocabulary(all []termCount) *Vocabulary {
	slices.SortFunc(all, func(a, b termCount) int {
		if a.c != b.c {
			return cmp.Compare(b.c, a.c)
		}
		return strings.Compare(a.term, b.term)
	})
	n := c.NumFeatures
	if n <= 0 || n > len(all) {
		n = len(all)
	}
	index := make(map[string]int, n)
	for i := 0; i < n; i++ {
		index[all[i].term] = i
	}
	return &Vocabulary{Index: index, Dim: max(n, 1)}
}
