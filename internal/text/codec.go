package text

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"keystoneml/internal/core"
)

// vocabularyState is the gob payload behind Vocabulary's StateCodec.
type vocabularyState struct {
	// Terms is the vocabulary in index order, the form EncodeState
	// writes. Unlike a map, a slice encodes the same vocabulary to the
	// same bytes, so an artifact's content address depends on its model
	// alone.
	Terms []string
	// Index is the map form: what earlier artifacts carry, and what
	// EncodeState writes for a vocabulary whose Index is not one to one
	// onto [0, len(Index)), so that decode reports its IndexError.
	Index map[string]int
	Dim   int
}

// StateKind implements core.StateCodec.
func (v *Vocabulary) StateKind() string { return "model.vocab" }

// EncodeState implements core.StateCodec.
func (v *Vocabulary) EncodeState() ([]byte, error) {
	s := vocabularyState{Index: v.Index, Dim: v.Dim}
	if terms, ok := v.terms(); ok {
		s = vocabularyState{Terms: terms, Dim: v.Dim}
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(s)
	return buf.Bytes(), err
}

// terms lists the vocabulary in index order, when Index numbers its terms
// one to one onto [0, len(Index)).
func (v *Vocabulary) terms() ([]string, bool) {
	terms := make([]string, len(v.Index))
	set := make([]bool, len(v.Index))
	for term, i := range v.Index {
		if i < 0 || i >= len(terms) || set[i] {
			return nil, false
		}
		terms[i], set[i] = term, true
	}
	return terms, true
}

// IndexError reports a decoded vocabulary state no fit produces. A fit
// numbers its n terms 0 to n-1 and sets Dim to max(n, 1); a decoded
// state must have that Dim and an Index one to one into [0, Dim), which
// also bounds the fused featuriser's per-index scratch by the artifact's
// size.
type IndexError struct {
	Terms, Dim int    // the decoded vocabulary's size and dimension
	Term       string // the term at fault when Dim is right
	Index      int    // Term's index
	Other      string // the term sharing Index when it is in range
}

func (e *IndexError) Error() string {
	switch {
	case e.Dim != max(e.Terms, 1):
		return fmt.Sprintf("text: vocabulary of %d terms has Dim %d, want %d", e.Terms, e.Dim, max(e.Terms, 1))
	case e.Index < 0 || e.Index >= e.Dim:
		return fmt.Sprintf("text: vocabulary term %q has index %d outside [0,%d)", e.Term, e.Index, e.Dim)
	}
	return fmt.Sprintf("text: vocabulary terms %q and %q share index %d", e.Other, e.Term, e.Index)
}

// validate checks the state against what a fit produces.
func (s *vocabularyState) validate() error {
	n := len(s.Index)
	if s.Dim != max(n, 1) {
		return &IndexError{Terms: n, Dim: s.Dim}
	}
	seen := make([]bool, s.Dim)
	for term, i := range s.Index {
		if i < 0 || i >= s.Dim {
			return &IndexError{Terms: n, Dim: s.Dim, Term: term, Index: i}
		}
		if seen[i] {
			for other, j := range s.Index {
				if j == i && other != term {
					return &IndexError{Terms: n, Dim: s.Dim, Term: max(term, other), Index: i, Other: min(term, other)}
				}
			}
		}
		seen[i] = true
	}
	return nil
}

func init() {
	core.RegisterStateDecoder("model.vocab", func(state []byte) (core.TransformOp, error) {
		var s vocabularyState
		if err := gob.NewDecoder(bytes.NewReader(state)).Decode(&s); err != nil {
			return nil, err
		}
		if s.Terms != nil {
			s.Index = make(map[string]int, len(s.Terms))
			for i, term := range s.Terms {
				s.Index[term] = i
			}
		}
		if err := s.validate(); err != nil {
			return nil, err
		}
		return &Vocabulary{Index: s.Index, Dim: s.Dim}, nil
	})

	// The text featurizers are stateless and reconstructible from their
	// names.
	core.RegisterFuncResolver(func(name string) (core.TransformOp, bool) {
		switch name {
		case "text.trim":
			return Trim(), true
		case "text.lowercase":
			return LowerCase(), true
		case "text.tokenize":
			return Tokenizer(), true
		case "text.termfreq":
			return TermFrequency(), true
		}
		if lo, hi, ok := ngramRange(name); ok {
			return NGrams(lo, hi), true
		}
		return nil, false
	})
}
