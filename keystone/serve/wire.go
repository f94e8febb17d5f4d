package serve

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"unsafe"
)

// maxDepth is the deepest container nesting a body may have, counting
// its top-level object — encoding/json's limit, kept so a body of '['s
// costs a bounded stack.
const maxDepth = 10000

// scanner is the single-pass JSON reader behind VectorCodec and
// ImageCodec. It walks the body's known envelope once — object members
// by exact key, number arrays straight into float64s — and validates the
// members it skips, so a body is accepted only if it is well-formed JSON
// from first byte to last.
//
// The first failure sticks in err and moves pos to the end of the body:
// every later read then fails too and every loop ends, so callers check
// err once, after the walk.
type scanner struct {
	buf   []byte
	pos   int
	err   error
	depth int // containers open around pos

	// flat backs every number array of the body: rows of a batch are
	// slices of the one array, sized once from the body (see floats).
	flat []float64
}

func (s *scanner) fail(what string) {
	if s.err == nil {
		s.err = fmt.Errorf("bad JSON: %s at offset %d", what, s.pos)
	}
	s.pos = len(s.buf)
}

// peek skips whitespace and returns the next byte, 0 at the end of the
// body.
func (s *scanner) peek() byte {
	for ; s.pos < len(s.buf); s.pos++ {
		switch c := s.buf[s.pos]; c {
		case ' ', '\t', '\r', '\n':
		default:
			return c
		}
	}
	return 0
}

// open consumes a container's opening delimiter and reports whether an
// element follows; a container closed at once is consumed whole. A null
// stands for the empty container, as it does when encoding/json reads
// one into a slice or a struct.
func (s *scanner) open(open, close byte) bool {
	switch s.peek() {
	case open:
		if s.depth == maxDepth {
			s.fail("nesting too deep")
			return false
		}
		s.pos++
		if s.peek() != close {
			s.depth++
			return true
		}
		s.pos++
	case 'n':
		s.lit("null")
	default:
		s.fail("want '" + string(open) + "'")
	}
	return false
}

// next consumes what follows an element: a comma (another element
// follows) or the closing delimiter.
func (s *scanner) next(close byte) bool {
	switch s.peek() {
	case ',':
		s.pos++
		return true
	case close:
		s.pos++
		s.depth--
	default:
		s.fail("want ',' or '" + string(close) + "'")
	}
	return false
}

// end reports the walk's error, or trailing data after the top-level
// value.
func (s *scanner) end() error {
	if s.peek(); s.pos < len(s.buf) {
		s.fail("trailing data")
	}
	return s.err
}

// key consumes an object member's name and colon and returns the name's
// raw bytes: names are compared as written, so neither another case nor
// an escaped spelling of a known key matches it.
func (s *scanner) key() []byte {
	k := s.str()
	if s.peek() != ':' {
		s.fail("want ':'")
		return nil
	}
	s.pos++
	return k
}

// str consumes a string and returns the bytes between its quotes,
// escapes checked but not decoded.
func (s *scanner) str() []byte {
	if s.peek() != '"' {
		s.fail("want a string")
		return nil
	}
	s.pos++
	start := s.pos
	for s.pos < len(s.buf) {
		switch c := s.buf[s.pos]; {
		case c == '"':
			s.pos++
			return s.buf[start : s.pos-1]
		case c < 0x20:
			s.fail("control character in string")
			return nil
		case c == '\\':
			s.pos++
			if !s.escape() {
				s.fail("bad escape in string")
				return nil
			}
		default:
			s.pos++
		}
	}
	s.fail("unterminated string")
	return nil
}

// escape consumes the part of an escape sequence after its backslash.
func (s *scanner) escape() bool {
	if s.pos >= len(s.buf) {
		return false
	}
	c := s.buf[s.pos]
	s.pos++
	if c != 'u' {
		return strings.IndexByte(`"\/bfnrt`, c) >= 0
	}
	for end := s.pos + 4; s.pos < end; s.pos++ {
		if s.pos >= len(s.buf) || !isHex(s.buf[s.pos]) {
			return false
		}
	}
	return true
}

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func (s *scanner) lit(word string) {
	if !bytes.HasPrefix(s.buf[s.pos:], []byte(word)) {
		s.fail("want " + word)
		return
	}
	s.pos += len(word)
}

// skip consumes and validates one value of any type.
func (s *scanner) skip() {
	switch c := s.peek(); {
	case c == '{' || c == '[':
		close := c + 2 // '}' follows '{' as ']' follows '[', one byte between
		for ok := s.open(c, close); ok; ok = s.next(close) {
			if c == '{' {
				s.key()
			}
			s.skip()
		}
	case c == '"':
		s.str()
	case c == 't':
		s.lit("true")
	case c == 'f':
		s.lit("false")
	case c == 'n':
		s.lit("null")
	default:
		s.number()
	}
}

// number consumes one number and returns it as a string view of the
// body (valid while the body is).
func (s *scanner) number() string {
	s.peek()
	start := s.pos
	end, what := numberEnd(s.buf, start)
	s.pos = end
	if what != "" {
		s.fail(what)
		return ""
	}
	return unsafe.String(&s.buf[start], end-start)
}

// numberEnd checks the token at b[i:] against the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its end, or
// where and how it departs from the grammar.
func numberEnd(b []byte, i int) (end int, what string) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && isDigit(b[i]):
		i = digits(b, i)
	default:
		return i, "want a number"
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return j, "want a digit after '.'"
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return j, "want a digit in exponent"
		}
		i = j
	}
	return i, ""
}

// digits returns the index after the run of digits starting at i.
func digits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// float consumes a number as a float64. The token goes to
// strconv.ParseFloat, as encoding/json's would, so the value is the same
// to the bit; a number beyond float64's range is an error.
func (s *scanner) float() float64 {
	tok := s.number()
	if s.err != nil {
		return 0
	}
	f, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		s.pos -= len(tok)
		s.fail("number out of range")
	}
	return f
}

// integer consumes a number that must be an integer literal fitting an
// int, or a null, which leaves v as it is.
func (s *scanner) integer(v *int) {
	if s.peek() == 'n' {
		s.lit("null")
		return
	}
	tok := s.number()
	if s.err != nil {
		return
	}
	n, err := strconv.ParseInt(tok, 10, strconv.IntSize)
	if err != nil {
		s.pos -= len(tok)
		s.fail("want an integer")
		return
	}
	*v = int(n)
}

// floats consumes an array of numbers (or a null: no numbers) and
// returns it as a full slice of s.flat. The backing array is allocated
// once, at the body's first array: two numbers anywhere in a JSON text have a comma between them,
// so the commas left in the body, plus one, bound every number still to
// come — exact for a well-formed request, and never more than half the
// body's length however hostile the body.
func (s *scanner) floats() []float64 {
	if s.flat == nil {
		rest := s.buf[s.pos:]
		s.flat = make([]float64, 0, min(bytes.Count(rest, []byte(","))+1, (len(rest)+1)/2))
	}
	dst := s.flat
	start := len(dst)
	for ok := s.open('[', ']'); ok; ok = s.next(']') {
		dst = append(dst, s.float())
	}
	s.flat = dst
	return dst[start:len(dst):len(dst)]
}
