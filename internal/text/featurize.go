package text

import (
	"math/bits"
	"unicode/utf8"

	"keystoneml/internal/core"
	"keystoneml/internal/engine"
	"keystoneml/internal/linalg"
)

// figure2Len is the length of the Figure 2 chain text.trim →
// text.lowercase → text.tokenize → text.ngrams[lo-hi] → text.termfreq.
const figure2Len = 5

// matchFigure2 reports whether chain ends in the Figure 2 chain, and its
// n-gram range. Names alone are matched, which is sound because a
// persisted operator's name fully determines its behaviour.
func matchFigure2(chain []core.TransformOp) (lo, hi int, ok bool) {
	if len(chain) < figure2Len {
		return 0, 0, false
	}
	c := chain[len(chain)-figure2Len:]
	lo, hi, ok = ngramRange(c[3].Name())
	if !ok || c[0].Name() != "text.trim" || c[1].Name() != "text.lowercase" ||
		c[2].Name() != "text.tokenize" || c[4].Name() != "text.termfreq" {
		return 0, 0, false
	}
	return lo, hi, true
}

// FuseChain implements core.ChainOp. A vocabulary fed by the Figure 2
// chain absorbs it: a document becomes its sparse row in one byte scan,
// with no intermediate strings, slices or maps.
func (v *Vocabulary) FuseChain(chain []core.TransformOp) (int, func() func(any) any) {
	lo, hi, ok := matchFigure2(chain)
	if !ok {
		return 0, nil
	}
	absorbed := chain[len(chain)-figure2Len:]
	return figure2Len, func() func(any) any {
		f := &featurizer{v: v, lo: lo, hi: hi, chain: absorbed, seen: make([]uint64, (v.Dim+63)/64)}
		return f.apply
	}
}

// featurizer is the fused Figure 2 chain over one vocabulary, with one
// goroutine's scratch.
type featurizer struct {
	v      *Vocabulary
	lo, hi int
	chain  []core.TransformOp // the absorbed operators, for the fallback
	s      scratch
	// seen is a bitset over the vocabulary's indices: a hit sets its bit,
	// and reading the set words in order yields the row's indices sorted
	// and deduplicated. Each row clears the words it set.
	seen []uint64
}

// scratch is one document's tokens, reused across documents.
type scratch struct {
	// doc is the document's tokens, lower-cased and joined with '_', so
	// every n-gram is a substring of it.
	doc []byte
	// starts holds each token's offset in doc, then len(doc)+1: token t
	// spans doc[starts[t] : starts[t+1]-1].
	starts []int
}

// apply featurizes one document. A record that is not a string, or a
// document holding any byte ≥ 0x80, takes the absorbed operators' own
// path instead, so Unicode case and space rules, invalid UTF-8 and
// panics are theirs.
func (f *featurizer) apply(in any) any {
	if doc, ok := in.(string); ok && f.s.scan(doc) {
		return f.row()
	}
	for _, op := range f.chain {
		in = op.Apply(in)
	}
	return f.v.Apply(in)
}

// row looks the scanned document's n-grams up in the vocabulary.
func (f *featurizer) row() *linalg.SparseVector {
	s := &f.s
	hits, first, last := 0, len(f.seen), -1
	for n := f.lo; n <= f.hi; n++ {
		for t := 0; t+n <= s.tokens(); t++ {
			j, ok := f.v.Index[string(s.gram(t, n))]
			if !ok {
				continue
			}
			if w, bit := j>>6, uint64(1)<<(j&63); f.seen[w]&bit == 0 {
				f.seen[w] |= bit
				hits++
				first, last = min(first, w), max(last, w)
			}
		}
	}
	row := &linalg.SparseVector{Dim: f.v.Dim}
	if hits == 0 {
		return row
	}
	row.Idx, row.Val = make([]int, 0, hits), make([]float64, hits)
	for w := first; w <= last; w++ {
		for b := f.seen[w]; b != 0; b &= b - 1 {
			row.Idx = append(row.Idx, w<<6+bits.TrailingZeros64(b))
		}
		f.seen[w] = 0
	}
	for k := range row.Val {
		row.Val[k] = 1
	}
	return row
}

// scan is the ASCII byte scan: it lays doc's tokens out in s. On ASCII
// input strings.TrimSpace trims exactly isASCIISpace and strings.ToLower
// maps exactly A–Z; the tokenizer's separators are ASCII. scan reports
// false on the first byte ≥ 0x80.
func (s *scratch) scan(doc string) bool {
	lo, hi := 0, len(doc)
	for lo < hi && isASCIISpace(doc[lo]) {
		lo++
	}
	for hi > lo && isASCIISpace(doc[hi-1]) {
		hi--
	}
	s.doc, s.starts = s.doc[:0], s.starts[:0]
	inToken := false
	for i := lo; i < hi; i++ {
		c := doc[i]
		if c >= utf8.RuneSelf {
			return false
		}
		if isSeparator(rune(c)) {
			inToken = false
			continue
		}
		if !inToken {
			if len(s.starts) > 0 {
				s.doc = append(s.doc, '_')
			}
			s.starts = append(s.starts, len(s.doc))
			inToken = true
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		s.doc = append(s.doc, c)
	}
	s.starts = append(s.starts, len(s.doc)+1)
	return true
}

// tokens is the scanned document's token count.
func (s *scratch) tokens() int { return len(s.starts) - 1 }

// gram is the n-gram of the n tokens from token t: NGrams' join of them.
func (s *scratch) gram(t, n int) []byte { return s.doc[s.starts[t] : s.starts[t+n]-1] }

// isASCIISpace is unicode.IsSpace restricted to ASCII.
func isASCIISpace(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\v', '\f', '\r':
		return true
	}
	return false
}

// FuseChain implements core.ChainEstimator. Fed by the Figure 2 chain,
// the estimator fits on the documents themselves: each partition interns
// its documents' n-grams into a dictionary of its own in one byte scan
// per document and counts document frequencies over the ids; the fit
// then merges the dictionaries and selects the vocabulary Fit selects.
func (c *CommonSparseFeatures) FuseChain(chain []core.TransformOp) (int, core.EstimatorOp) {
	lo, hi, ok := matchFigure2(chain)
	if !ok {
		return 0, nil
	}
	return figure2Len, &fusedCommonSparse{c: c, lo: lo, hi: hi, chain: chain[len(chain)-figure2Len:]}
}

// fusedCommonSparse is CommonSparseFeatures fused with the Figure 2 chain.
type fusedCommonSparse struct {
	c      *CommonSparseFeatures
	lo, hi int
	chain  []core.TransformOp // the absorbed operators, for the fallback
}

// Name implements core.EstimatorOp.
func (f *fusedCommonSparse) Name() string { return f.c.Name() + "[fused]" }

// Fit implements core.EstimatorOp over documents.
func (f *fusedCommonSparse) Fit(ctx *engine.Context, data core.Fetch, labels core.Fetch) core.TransformOp {
	parts := ctx.MapPartitions(data(), func(docs []any) []any {
		d := newTermCounts()
		var s scratch
		for i, doc := range docs {
			f.count(d, &s, doc, int32(i))
		}
		return []any{d}
	})
	var all *termCounts
	for i := 0; i < parts.NumPartitions(); i++ {
		d := parts.Partition(i)[0].(*termCounts)
		if all == nil {
			all = d
			continue
		}
		for id, term := range d.terms {
			all.df[all.id(term)] += d.df[id]
		}
	}
	counts := make([]termCount, len(all.terms))
	for id, term := range all.terms {
		counts[id] = termCount{term, float64(all.df[id])}
	}
	return f.c.vocabulary(counts)
}

// count adds document doc (the partition's doc-th) to d: every distinct
// n-gram once. A record that is not an ASCII string takes the absorbed
// operators, as the fused apply does.
func (f *fusedCommonSparse) count(d *termCounts, s *scratch, doc any, stamp int32) {
	if str, ok := doc.(string); ok && s.scan(str) {
		for n := f.lo; n <= f.hi; n++ {
			for t := 0; t+n <= s.tokens(); t++ {
				d.see(d.intern(s.gram(t, n)), stamp)
			}
		}
		return
	}
	for _, op := range f.chain {
		doc = op.Apply(doc)
	}
	for term := range doc.(map[string]float64) {
		d.see(d.id(term), stamp)
	}
}

// termCounts is one partition's n-gram dictionary: ids number the
// distinct terms in first-seen order, and df counts the documents holding
// each.
type termCounts struct {
	ids   map[string]int32
	terms []string
	df    []int
	last  []int32 // the last document that counted each id
}

func newTermCounts() *termCounts { return &termCounts{ids: make(map[string]int32)} }

// intern returns gram's id, building its string only when it is new.
func (d *termCounts) intern(gram []byte) int32 {
	if id, ok := d.ids[string(gram)]; ok {
		return id
	}
	return d.insert(string(gram))
}

// id returns term's id, adding it when it is new.
func (d *termCounts) id(term string) int32 {
	if id, ok := d.ids[term]; ok {
		return id
	}
	return d.insert(term)
}

func (d *termCounts) insert(term string) int32 {
	id := int32(len(d.terms))
	d.ids[term] = id
	d.terms = append(d.terms, term)
	d.df = append(d.df, 0)
	d.last = append(d.last, -1)
	return id
}

// see counts id for document stamp, once per document.
func (d *termCounts) see(id, stamp int32) {
	if d.last[id] != stamp {
		d.last[id] = stamp
		d.df[id]++
	}
}
