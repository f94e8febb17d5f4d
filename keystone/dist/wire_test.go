package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"keystoneml/internal/image"
	"keystoneml/internal/linalg"
)

// frameBytes encodes v as one wire frame.
func frameBytes(t *testing.T, v any) []byte {
	t.Helper()
	b, err := encodeFrame(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// encodeFrame encodes v as one wire frame.
func encodeFrame(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := writeFrame(bufio.NewWriter(&buf), v)
	return buf.Bytes(), err
}

// frameReaderOf reads frames from b.
func frameReaderOf(b []byte) *bufio.Reader { return bufio.NewReader(bytes.NewReader(b)) }

// TestReadFrameMalformed pins the decoder's failure taxonomy: every
// malformed input maps onto exactly one typed sentinel via errors.Is,
// and none of them panic or hang.
func TestReadFrameMalformed(t *testing.T) {
	valid := frameBytes(t, &request{Op: opPing})

	oversize := make([]byte, 4)
	binary.BigEndian.PutUint32(oversize, maxFrame+1)

	huge := make([]byte, 4)
	binary.BigEndian.PutUint32(huge, 0xFFFFFFFF)

	shortPayload := append([]byte(nil), valid[:len(valid)-3]...)

	garbage := func() []byte {
		payload := []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02}
		hdr := make([]byte, 4)
		binary.BigEndian.PutUint32(hdr, uint32(len(payload)))
		return append(hdr, payload...)
	}()

	empty := func() []byte {
		hdr := make([]byte, 4)
		return hdr // length 0, no payload: gob gets zero bytes
	}()

	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"clean EOF at boundary", nil, io.EOF},
		{"torn header 1 byte", valid[:1], ErrFrameTruncated},
		{"torn header 3 bytes", valid[:3], ErrFrameTruncated},
		{"oversize prefix cap+1", oversize, ErrFrameTooLarge},
		{"oversize prefix max uint32", huge, ErrFrameTooLarge},
		{"truncated payload", shortPayload, ErrFrameTruncated},
		{"header only, missing payload", valid[:4], ErrFrameTruncated},
		{"garbage gob payload", garbage, ErrFrameCorrupt},
		{"zero-length payload", empty, ErrFrameCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var req request
			err := readFrame(frameReaderOf(tc.in), &req)
			if err == nil {
				t.Fatalf("malformed frame decoded: %+v", req)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want %v", err, tc.want)
			}
		})
	}
}

// TestReadFrameRoundTrip: a well-formed frame decodes to exactly what
// was written, and the stream position lands on the next frame boundary.
func TestReadFrameRoundTrip(t *testing.T) {
	in := &request{
		Op:      opApply,
		Dataset: "dst",
		Source:  "src",
		OpKind:  "k",
		OpState: []byte{1, 2, 3},
		Only:    []int{0, 2},
		Parts:   []partition{{Index: 1, Records: []any{"a", "b"}}},
	}
	stream := append(frameBytes(t, in), frameBytes(t, &request{Op: opPing})...)
	r := frameReaderOf(stream)
	var got request
	if err := readFrame(r, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, in) {
		t.Fatalf("round trip mangled the frame: %+v", got)
	}
	var next request
	if err := readFrame(r, &next); err != nil || next.Op != opPing {
		t.Fatalf("second frame = %+v, %v", next, err)
	}
	var eof request
	if err := readFrame(r, &eof); err != io.EOF {
		t.Fatalf("stream end = %v, want io.EOF", err)
	}
}

// FuzzReadFrame: for arbitrary bytes the decoder must terminate without
// panicking and classify every failure as io.EOF or one of the typed
// sentinels — garbage never surfaces as an unclassified error, and a
// frame the decoder accepts must re-encode.
func FuzzReadFrame(f *testing.F) {
	seed, _ := encodeFrame(&request{Op: opApply, Dataset: "d", Source: "s", Only: []int{1}})
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0, 0, 4, 1, 2, 3, 4})
	corrupt := append([]byte(nil), seed...)
	if len(corrupt) > 6 {
		corrupt[6] ^= 0x5A
	}
	f.Add(corrupt)
	// One valid load frame per built-in record type and gob case.
	for _, tc := range kindCases() {
		b, err := encodeFrame(&request{Op: opLoad, Dataset: "d", Parts: []partition{{Index: 2, Records: tc.recs}}})
		if err != nil {
			f.Fatalf("%s: %v", tc.name, err)
		}
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var req request
		err := readFrame(frameReaderOf(data), &req)
		if err == nil {
			if _, werr := encodeFrame(&req); werr != nil {
				t.Fatalf("accepted frame does not re-encode: %v", werr)
			}
			return
		}
		if err == io.EOF {
			return
		}
		if !errors.Is(err, ErrFrameTruncated) && !errors.Is(err, ErrFrameTooLarge) && !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("unclassified decode error: %v", err)
		}
	})
}

// wirePoint and wirePolar are record types the typed codec does not
// know: partitions of them cross the wire as gob, so both ends register
// them.
type wirePoint struct{ X, Y float64 }
type wirePolar struct{ R, Theta float64 }

func init() {
	RegisterRecordType(wirePoint{})
	RegisterRecordType(wirePolar{})
}

// kindCases is one partition per built-in record type, plus the gob
// fallback's own cases, each with the edge cases its codec must carry:
// empty and nil slices, NaN and signed zeros, negative and unsorted
// sparse indices, and non-ASCII text. Only documents and sparse vectors
// are typed; the other built-in types cross as gob.
func kindCases() []struct {
	name string
	kind int
	recs []any
} {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	negZero := math.Copysign(0, -1)
	return []struct {
		name string
		kind int
		recs []any
	}{
		{"string", kindString, []any{"a review", "", "naïve — ünïcode", "x"}},
		{"[]string", kindGob, []any{[]string{"a", "b c"}, []string(nil), []string{}, []string{"", "é"}}},
		{"map[string]float64", kindGob, []any{map[string]float64{"a": 1, "b c": 0.5}, map[string]float64{}, map[string]float64{"": nan}}},
		{"[]float64", kindGob, []any{[]float64{1, negZero, nan, math.Inf(-1), 1e-300}, []float64(nil), []float64{math.MaxFloat64}}},
		{"*linalg.SparseVector", kindSparse, []any{
			&linalg.SparseVector{Dim: 5000, Idx: []int{3, 17, 4999}, Val: []float64{1, 2.5, negZero}},
			&linalg.SparseVector{Dim: 0},
			&linalg.SparseVector{Dim: -1, Idx: []int{9, 2, -7, math.MaxInt, math.MinInt}, Val: []float64{nan, 1, 2, 3, 4}},
		}},
		{"*image.Image", kindGob, []any{
			&image.Image{Width: 2, Height: 1, Channels: 2, Pix: []float64{0.1, 0.2, 0.3, nan}},
			&image.Image{Width: 1, Height: 1, Channels: 1},
		}},
		{"[][]float64", kindGob, []any{[][]float64{{1, 2}, {}, nil, {nan}}, [][]float64(nil), [][]float64{{negZero}}}},
		{"registered custom type", kindGob, []any{wirePoint{1, 2}, wirePoint{negZero, nan}}},
		{"mixed types", kindGob, []any{"doc", []float64{1, 2}, wirePolar{1, 0.5}, &linalg.SparseVector{Dim: 3, Idx: []int{1}, Val: []float64{2}}}},
		{"sparse with ragged Idx/Val", kindGob, []any{&linalg.SparseVector{Dim: 3, Idx: []int{1, 2}, Val: []float64{2}}}},
	}
}

// canon maps a record onto a form reflect.DeepEqual compares exactly:
// floats become their bits (so NaNs compare and signed zeros differ) and
// nil slices become empty ones — the codec, like gob, does not tell them
// apart.
func canon(rec any) any {
	bitsOf := func(fs []float64) []uint64 {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	switch v := rec.(type) {
	case []string:
		return append([]string{}, v...)
	case map[string]float64:
		m := make(map[string]uint64, len(v))
		for k, x := range v {
			m[k] = math.Float64bits(x)
		}
		return m
	case []float64:
		return bitsOf(v)
	case *linalg.SparseVector:
		if v == nil {
			return v
		}
		return struct {
			Dim int
			Idx []int
			Val []uint64
		}{v.Dim, append([]int{}, v.Idx...), bitsOf(v.Val)}
	case *image.Image:
		if v == nil {
			return v
		}
		return struct {
			W, H, C int
			Pix     []uint64
		}{v.Width, v.Height, v.Channels, bitsOf(v.Pix)}
	case [][]float64:
		rows := [][]uint64{}
		for _, r := range v {
			rows = append(rows, bitsOf(r))
		}
		return rows
	case wirePoint:
		return [2]uint64{gobBits(v.X), gobBits(v.Y)}
	case wirePolar:
		return [2]uint64{gobBits(v.R), gobBits(v.Theta)}
	}
	return rec
}

// gobBits is the bits of a float struct field as gob carries it: gob
// omits zero-valued fields, so a -0 field arrives as +0 (equal under
// reflect.DeepEqual, which compares floats with ==).
func gobBits(f float64) uint64 {
	if f == 0 {
		return 0
	}
	return math.Float64bits(f)
}

func canonParts(ps []partition) []any {
	out := []any{}
	for _, p := range ps {
		recs := []any{}
		for _, r := range p.Records {
			recs = append(recs, canon(r))
		}
		out = append(out, p.Index, recs)
	}
	return out
}

// roundTrip sends parts through one response frame and back, and checks
// that the reader charges its decode budget exactly what the writer
// counted for the frame.
func roundTrip(parts []partition) ([]partition, error) {
	msg := &response{Parts: parts}
	b, err := encodeFrame(msg)
	if err != nil {
		return nil, err
	}
	var got response
	if err := readFrame(frameReaderOf(b), &got); err != nil {
		return nil, fmt.Errorf("encoded frame does not decode: %w", err)
	}
	w := frameWriter{sizing: true}
	w.message(msg)
	br := frameReaderOf(b)
	br.Discard(4)
	r := frameReader{br: br, rem: len(b) - 4, budget: maxFrame}
	r.message(new(response))
	if charged := maxFrame - r.budget; r.err != nil || charged != w.decoded {
		return nil, fmt.Errorf("reader charged %d bytes (err %v), writer counted %d", charged, r.err, w.decoded)
	}
	return got.Parts, nil
}

// TestPartitionRoundTrip: every built-in record type, and the gob
// fallback for registered custom types and mixed partitions, crosses the
// wire bit for bit, under the kind the codec is meant to pick.
func TestPartitionRoundTrip(t *testing.T) {
	for _, tc := range kindCases() {
		t.Run(tc.name, func(t *testing.T) {
			if got := partitionKind(tc.recs); got != tc.kind {
				t.Fatalf("partition kind %d, want %d", got, tc.kind)
			}
			in := []partition{{Index: 7, Records: tc.recs}, {Index: 1 << 40}, {Index: -3, Records: tc.recs[:1]}}
			got, err := roundTrip(in)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(canonParts(got), canonParts(in)) {
				t.Fatalf("round trip changed the partitions:\n got %#v\nwant %#v", canonParts(got), canonParts(in))
			}
		})
	}
}

// TestDecodedBlocksAreCapped: records decoded from one block are capped
// sub-slices, so appending to one record never writes into the next.
func TestDecodedBlocksAreCapped(t *testing.T) {
	got, err := roundTrip([]partition{{Records: []any{
		&linalg.SparseVector{Dim: 9, Idx: []int{1, 2}, Val: []float64{1, 2}},
		&linalg.SparseVector{Dim: 9, Idx: []int{3}, Val: []float64{3}},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	a, b := got[0].Records[0].(*linalg.SparseVector), got[0].Records[1].(*linalg.SparseVector)
	_ = append(a.Idx, 99)
	_ = append(a.Val, 99)
	if b.Idx[0] != 3 || b.Val[0] != 3 {
		t.Fatalf("appending to record 0 overwrote record 1: %+v", b)
	}
}

// TestFrameEncodeWritesNothing: a partition gob cannot encode (a type
// nobody registered) fails with ErrFrameEncode before a byte is written.
func TestFrameEncodeWritesNothing(t *testing.T) {
	type unregistered struct{ V int }
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	err := writeFrame(bw, &request{Op: opLoad, Parts: []partition{{Records: []any{"ok"}}, {Records: []any{unregistered{1}}}}})
	if !errors.Is(err, ErrFrameEncode) {
		t.Fatalf("err = %v, want ErrFrameEncode", err)
	}
	if bw.Buffered() != 0 || buf.Len() != 0 {
		t.Fatalf("%d bytes buffered and %d written for an unencodable frame", bw.Buffered(), buf.Len())
	}
}

// TestCorruptFrameKeepsStreamAligned: a frame that arrives whole but
// does not decode is consumed whole, so the next frame still reads.
func TestCorruptFrameKeepsStreamAligned(t *testing.T) {
	bad := frameBytes(t, &request{Op: opLoad, Parts: []partition{{Records: []any{"abc"}}}})
	bad[len(bad)-7] = 9 // the record kind, before count, total, length and "abc": no such kind
	r := frameReaderOf(append(bad, frameBytes(t, &request{Op: opPing})...))
	var req request
	if err := readFrame(r, &req); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("corrupt frame: err = %v, want ErrFrameCorrupt", err)
	}
	var next request
	if err := readFrame(r, &next); err != nil || next.Op != opPing {
		t.Fatalf("frame after a corrupt one = %+v, %v", next, err)
	}
}

// TestWriteFrameToDeadConn: a peer that is gone mid-frame fails the
// write with an error; the writer does not spin on its full buffer.
func TestWriteFrameToDeadConn(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	b.Close()
	_, bw := connBuffers(a)
	doc := strings.Repeat("x", 3*connBufSize)
	done := make(chan error, 1)
	go func() { done <- writeFrame(bw, &response{Parts: []partition{{Records: []any{doc, doc}}}}) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("a frame written to a closed connection succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("writeFrame hung on a closed connection")
	}
}

// allocBytesPerRun is the heap bytes f allocates per call, averaged over
// runs on one P (testing.AllocsPerRun counts objects, not bytes).
func allocBytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestReadFrameHostileCounts: a small frame whose inner count claims
// 1<<40 items fails with ErrFrameCorrupt and allocates less than the
// frame's own length — every count is checked against the bytes left in
// the frame before it sizes anything. So does a stream of a few bytes
// whose length prefix claims a 1 GiB frame and whose counts claim
// hundreds of millions of items: they fit in the claimed frame, but the
// blocks they would size exceed the frame's decode budget.
func TestReadFrameHostileCounts(t *testing.T) {
	const huge = 1 << 40
	// A request with the first skip envelope fields empty, then tail,
	// under a length prefix of claim bytes (0: the payload's own length).
	withPrefix := func(claim uint32, skip int, tail ...uint64) []byte {
		payload := make([]byte, skip)
		for _, v := range tail {
			payload = binary.AppendUvarint(payload, v)
		}
		if claim == 0 {
			claim = uint32(len(payload))
		}
		return append(binary.BigEndian.AppendUint32(nil, claim), payload...)
	}
	frame := func(tail ...uint64) []byte { return withPrefix(0, 10, tail...) } // Op … Ref, OpState and Only: empty
	lying := func(tail ...uint64) []byte { return withPrefix(maxFrame, 10, tail...) }
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"partitions", frame(huge), errCount},
		{"string records", frame(1, 0, kindString, huge), errCount},
		{"string block", frame(1, 0, kindString, 1, huge), errCount},
		{"sparse nonzeros", frame(1, 0, kindSparse, 1, huge), errCount},
		{"gob blob", frame(1, 0, kindGob, 1, huge), errCount},
		{"string length", append(binary.BigEndian.AppendUint32(nil, 10), binary.AppendUvarint(make([]byte, 0, 10), huge)...), errCount},
		{"short stream: partitions", lying(1 << 28), errBudget},
		{"short stream: string records", lying(1, 0, kindString, 1<<29, 0), errBudget},
		{"short stream: sparse records", lying(1, 0, kindSparse, 1<<29, 0), errBudget},
		{"short stream: sparse nonzeros", lying(1, 0, kindSparse, 1, 1<<28), errBudget},
		{"short stream: Only", withPrefix(maxFrame, 9, 1<<28), errBudget},
	}
	if n := len(cases[0].in); n != 20 {
		t.Fatalf("partition-count frame is %d bytes, want 20", n)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := bytes.NewReader(tc.in)
			br := bufio.NewReader(src)
			var req request
			var err error
			decode := func() {
				src.Reset(tc.in)
				br.Reset(src)
				err = readFrame(br, &req)
			}
			decode()
			if err != tc.want || !errors.Is(err, ErrFrameCorrupt) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if b := allocBytesPerRun(100, decode); b >= float64(len(tc.in)) {
				t.Fatalf("rejecting a %d-byte frame allocated %.0f bytes", len(tc.in), b)
			}
		})
	}
}

// TestWireAllocBudget pins what a partition costs to cross a real
// connection (net.Pipe, per-connection buffers), writer and reader
// together. The writer allocates nothing; the reader allocates the
// decoded blocks — the partition list, the []any, and one block per
// column — and, for a value record such as a string, the interface box
// that holding it in []any costs. Nothing else grows with the records.
func TestWireAllocBudget(t *testing.T) {
	const n = 2000
	sparse, docs := make([]any, n), make([]any, n)
	for i := range sparse {
		sparse[i] = &linalg.SparseVector{Dim: 5000, Idx: []int{i % 50, 100 + i%7, 4999}, Val: []float64{1, 0.5, float64(i)}}
		docs[i] = fmt.Sprintf("review %d: the product arrived on time and works", i)
	}
	cases := []struct {
		name   string
		recs   []any
		budget float64
	}{
		// response, partition list, []any, vectors, Idx block, Val block
		{"sparse", sparse, 6},
		// response, partition list, []any, string block, one box per record
		{"strings", docs, 4 + n},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := net.Pipe()
			defer a.Close()
			defer b.Close()
			_, bw := connBuffers(a)
			br, _ := connBuffers(b)
			msg := &response{Parts: []partition{{Index: 3, Records: tc.recs}}}
			start, wrote := make(chan struct{}), make(chan error)
			go func() {
				for range start {
					wrote <- writeFrame(bw, msg)
				}
			}()
			defer close(start)
			var failed error
			allocs := testing.AllocsPerRun(10, func() {
				start <- struct{}{}
				got := new(response)
				if err := readFrame(br, got); err != nil && failed == nil {
					failed = err
					b.Close() // unblock the writer
				}
				if err := <-wrote; err != nil && failed == nil {
					failed = err
				}
				if failed == nil && (len(got.Parts) != 1 || len(got.Parts[0].Records) != n) {
					failed = fmt.Errorf("decoded %+v", got.Parts)
				}
			})
			if failed != nil {
				t.Fatal(failed)
			}
			t.Logf("%s: %.0f allocations per %d-record partition", tc.name, allocs, n)
			if allocs > tc.budget {
				t.Fatalf("%.0f allocations per %d-record partition, budget %.0f", allocs, n, tc.budget)
			}
		})
	}
}

// FuzzPartitionRoundTrip: any partition that encodes decodes to a
// partition reflect.DeepEqual to it (through canon: float bits, and nil
// slices equal to empty ones). The fuzz input picks the record type —
// each built-in type, a mixed partition, a registered custom type — and
// supplies the records' lengths, indices and float bits.
func FuzzPartitionRoundTrip(f *testing.F) {
	f.Add([]byte{0, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	for k := byte(0); k < 9; k++ {
		f.Add([]byte{k, 4, 0xff, 0x80, 0x7f, 0xf8, 1, 2, 3, 0, 0, 0, 5, 9, 200, 17, 64, 3})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := []partition{fuzzPartition(data)}
		got, err := roundTrip(in)
		if errors.Is(err, ErrFrameEncode) {
			return // gob cannot carry it either
		}
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(canonParts(got), canonParts(in)) {
			t.Fatalf("round trip changed the partition:\n got %#v\nwant %#v", canonParts(got), canonParts(in))
		}
	})
}

// fuzzPartition builds a partition from fuzz bytes: the first picks the
// record type (7 built-in types, then mixed, then a custom type), the second the
// record count, and the rest feed lengths, indices and float bits,
// reading zeros once exhausted.
func fuzzPartition(data []byte) partition {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	float := func() float64 {
		var b [8]byte
		for i := range b {
			b[i] = next()
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
	floats := func() []float64 {
		n := int(next() % 5)
		if n == 4 {
			return nil
		}
		fs := make([]float64, n)
		for i := range fs {
			fs[i] = float()
		}
		return fs
	}
	str := func() string {
		b := make([]byte, next()%6)
		for i := range b {
			b[i] = next()
		}
		return string(b)
	}
	var record func(kind byte) any
	record = func(kind byte) any {
		switch kind % 9 {
		case 0:
			return str()
		case 1:
			ts := make([]string, next()%4)
			for i := range ts {
				ts[i] = str()
			}
			return ts
		case 2:
			m := map[string]float64{}
			for i := next() % 4; i > 0; i-- {
				m[str()] = float()
			}
			return m
		case 3:
			return floats()
		case 4:
			v := &linalg.SparseVector{Dim: int(int8(next())) * 1000}
			for i := next() % 4; i > 0; i-- {
				v.Idx = append(v.Idx, int(int16(uint16(next())<<8|uint16(next()))))
				v.Val = append(v.Val, float())
			}
			return v
		case 5:
			return &image.Image{Width: int(next()), Height: int(next()), Channels: int(next() % 4), Pix: floats()}
		case 6:
			var m [][]float64
			for i := next() % 4; i > 0; i-- {
				m = append(m, floats())
			}
			return m
		case 7:
			return record(next() % 7)
		default:
			return wirePoint{float(), float()}
		}
	}
	kind := next()
	if kind%9 == 8 && next()%2 == 0 {
		kind = 8 // custom records, all of one type
	}
	p := partition{Index: int(int32(binary.LittleEndian.Uint32([]byte{next(), next(), next(), next()})))}
	for i := next() % 6; i > 0; i-- {
		p.Records = append(p.Records, record(kind))
	}
	return p
}
