package text

import (
	"math/bits"
	"sync"
	"unicode/utf8"

	"keystoneml/internal/core"
	"keystoneml/internal/linalg"
)

// FuseChain implements core.ChainOp. A vocabulary fed by the Figure 2
// chain text.trim → text.lowercase → text.tokenize → text.ngrams[lo-hi] →
// text.termfreq absorbs it: a document becomes its sparse row in one
// byte scan, with no intermediate strings, slices or maps. Names alone
// are matched, which is sound because a persisted operator's name fully
// determines its behaviour.
func (v *Vocabulary) FuseChain(chain []core.TransformOp) (int, func(any) any) {
	const n = 5
	if len(chain) < n {
		return 0, nil
	}
	c := chain[len(chain)-n:]
	lo, hi, ok := ngramRange(c[3].Name())
	if !ok || c[0].Name() != "text.trim" || c[1].Name() != "text.lowercase" ||
		c[2].Name() != "text.tokenize" || c[4].Name() != "text.termfreq" {
		return 0, nil
	}
	f := &featurizer{v: v, lo: lo, hi: hi, chain: c}
	f.pool.New = func() any { return &scratch{seen: make([]uint64, (v.Dim+63)/64)} }
	return n, f.apply
}

// featurizer is the fused Figure 2 chain over one vocabulary.
type featurizer struct {
	v      *Vocabulary
	lo, hi int
	chain  []core.TransformOp // the absorbed operators, for the fallback
	pool   sync.Pool          // *scratch
}

// scratch is one document's working memory, reused across documents.
type scratch struct {
	// doc is the document's tokens, lower-cased and joined with '_', so
	// every n-gram is a substring of it.
	doc []byte
	// starts holds each token's offset in doc, then len(doc)+1: token t
	// spans doc[starts[t] : starts[t+1]-1].
	starts []int
	// seen is a bitset over the vocabulary's indices: a hit sets its bit,
	// and reading the set words in order yields the row's indices sorted
	// and deduplicated. Each row clears the words it set.
	seen []uint64
}

// apply featurizes one document. A record that is not a string, or a
// document holding any byte ≥ 0x80, takes the absorbed operators' own
// path instead, so Unicode case and space rules, invalid UTF-8 and
// panics are theirs.
func (f *featurizer) apply(in any) any {
	doc, ok := in.(string)
	if !ok {
		return f.fallback(in)
	}
	s := f.pool.Get().(*scratch)
	row, ok := f.scan(s, doc)
	f.pool.Put(s)
	if !ok {
		return f.fallback(in)
	}
	return row
}

func (f *featurizer) fallback(in any) any {
	for _, op := range f.chain {
		in = op.Apply(in)
	}
	return f.v.Apply(in)
}

// scan is the ASCII path. On ASCII input strings.TrimSpace trims exactly
// isASCIISpace and strings.ToLower maps exactly A–Z; the tokenizer's
// separators are ASCII. scan reports false on the first byte ≥ 0x80.
func (f *featurizer) scan(s *scratch, doc string) (*linalg.SparseVector, bool) {
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
			return nil, false
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
	tokens := len(s.starts)
	s.starts = append(s.starts, len(s.doc)+1)

	hits, first, last := 0, len(s.seen), -1
	for n := f.lo; n <= f.hi; n++ {
		for t := 0; t+n <= tokens; t++ {
			j, ok := f.v.Index[string(s.doc[s.starts[t]:s.starts[t+n]-1])]
			if !ok {
				continue
			}
			if w, bit := j>>6, uint64(1)<<(j&63); s.seen[w]&bit == 0 {
				s.seen[w] |= bit
				hits++
				first, last = min(first, w), max(last, w)
			}
		}
	}
	row := &linalg.SparseVector{Dim: f.v.Dim}
	if hits == 0 {
		return row, true
	}
	row.Idx, row.Val = make([]int, 0, hits), make([]float64, hits)
	for w := first; w <= last; w++ {
		for b := s.seen[w]; b != 0; b &= b - 1 {
			row.Idx = append(row.Idx, w<<6+bits.TrailingZeros64(b))
		}
		s.seen[w] = 0
	}
	for k := range row.Val {
		row.Val[k] = 1
	}
	return row, true
}

// isASCIISpace is unicode.IsSpace restricted to ASCII.
func isASCIISpace(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\v', '\f', '\r':
		return true
	}
	return false
}
