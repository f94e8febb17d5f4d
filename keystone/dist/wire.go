// Package dist is the distributed tier: a coordinator that fits
// pipelines data-parallel across worker processes holding
// engine.Collection partitions, and a consistent-hashing Router that
// fronts N serve.Server replicas booted from one registry artifact id.
//
// The wire protocol is deliberately lean — length-prefixed binary frames
// over TCP, one self-contained request or response per frame — and
// reuses the artifact-persistence codecs for everything interesting:
// operators cross the wire as (state kind, state bytes) pairs exactly as
// they are persisted on disk (core.EncodeOp / core.DecodeOp), so any
// operator a pipeline can Save is an operator a worker can execute.
//
// Records cross as typed partitions where the traffic is: a partition of
// documents (string) or of sparse vectors (*linalg.SparseVector) is
// written as column blocks — uvarint lengths, delta-uvarint sparse
// indices, floats as gob's byte-reversed uvarint, so every bit survives —
// and decoded into one block per column, each record a capped sub-slice
// of it. Any other partition (the other built-in record types, a custom
// type added with RegisterRecordType, records of mixed types) is one gob
// blob.
//
// Framing: a frame is a big-endian uint32 payload length followed by
// that many payload bytes. The writer sizes the payload exactly in a
// first pass (which is also where an unencodable record is caught, so
// nothing is written for it), then streams header and payload through
// the connection's one fixed-size bufio.Writer; the reader decodes from
// the connection's one bufio.Reader, never past the frame's length, and
// presizes at most 1 GiB of blocks per frame from the counts it reads, so
// a lying length prefix costs no more than the cap. No
// state is shared across frames, so a torn or corrupt frame kills one
// request, not the stream, and either side can drop the connection at
// any frame boundary. Workers answer strictly in request order per
// connection; the coordinator serializes in-flight requests per
// connection and fans out across workers with one connection each.
package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net"
	"strings"
	"unsafe"

	"keystoneml/internal/image"
	"keystoneml/internal/linalg"
)

// maxFrame bounds a single frame (a full dataset partition set can ride
// one frame, so the cap is generous; it exists to fail fast on a
// corrupt length prefix, not to limit payloads).
const maxFrame = 1 << 30

// Sizes of the blocks a reader presizes from counts, charged against its
// frame's decode budget of maxFrame bytes.
const (
	wordSize   = int(unsafe.Sizeof(0))
	anySize    = int(unsafe.Sizeof(any(nil)))
	partSize   = int(unsafe.Sizeof(partition{}))
	sparseSize = int(unsafe.Sizeof(linalg.SparseVector{}))
)

// connBufSize is the size of each connection's reader and writer
// buffer: the most a frame ever holds in memory beyond its decoded
// records.
const connBufSize = 64 << 10

// Typed frame-decoding failures. Every malformed input readFrame can
// meet maps onto one of these (via errors.Is), so callers distinguish
// protocol damage from ordinary I/O without string matching — and the
// decoder never panics or allocates past the frame on garbage input.
var (
	// ErrFrameTooLarge: the length prefix exceeds the 1 GiB cap —
	// almost always a corrupt or misaligned prefix, not a real payload.
	ErrFrameTooLarge = errors.New("dist: frame length exceeds 1 GiB cap")
	// ErrFrameTruncated: the stream ended inside a frame (torn header
	// or payload shorter than its prefix).
	ErrFrameTruncated = errors.New("dist: truncated frame")
	// ErrFrameCorrupt: the payload arrived whole but does not decode as
	// the expected message.
	ErrFrameCorrupt = errors.New("dist: corrupt frame payload")
	// ErrFrameEncode: the message could not be encoded — in practice a
	// record type missing from RegisterRecordType. Nothing was written:
	// it is the sender's fault, not the connection's or the peer's, and
	// sending again cannot help.
	ErrFrameEncode = errors.New("dist: frame not encodable")
)

// The decoder's own failures: preallocated, so rejecting a hostile
// frame allocates nothing.
var (
	errPastFrame = fmt.Errorf("%w: a field runs past the end of the frame", ErrFrameCorrupt)
	errCount     = fmt.Errorf("%w: a count exceeds the bytes left in the frame", ErrFrameCorrupt)
	errBlock     = fmt.Errorf("%w: record lengths disagree with their block", ErrFrameCorrupt)
	errKind      = fmt.Errorf("%w: unknown record kind", ErrFrameCorrupt)
	errBudget    = fmt.Errorf("%w: counts presize more than 1 GiB of blocks", ErrFrameCorrupt)
	errTrailing  = fmt.Errorf("%w: bytes left over after the message", ErrFrameCorrupt)
)

// Wire operation names (request.Op).
const (
	opPing  = "ping"  // liveness + discovery (returns the worker's HTTP addr)
	opLoad  = "load"  // store the request's partitions under Dataset
	opApply = "apply" // map a decoded operator over Source into Dataset
	opZip   = "zip"   // gather join: concat Source and Source2 features into Dataset
	opFetch = "fetch" // return Dataset's partitions
	opFree  = "free"  // drop Dataset
	opServe = "serve" // register Route on the worker's HTTP replica from Artifact
	opStats = "stats" // resident datasets and record counts
)

// partition is one globally-indexed slice of a distributed collection.
// Index is the partition's position in the full collection, preserved
// across every operation so fetches reassemble in exact order and zips
// align — the invariant behind bit-identical distributed fits.
type partition struct {
	Index   int
	Records []any
}

// request is the coordinator→worker message; Op selects which fields
// are meaningful.
type request struct {
	Op      string
	Dataset string      // result (load/apply/zip) or target (fetch/free)
	Source  string      // input dataset
	Source2 string      // right input (zip)
	Parts   []partition // payload (load)
	OpKind  string      // operator state kind (apply), per core.EncodeOp
	OpState []byte      // operator state bytes (apply)
	Route   string      // serve: route name
	Kind    string      // serve: registered codec kind
	Ref     string      // serve: registry artifact id/tag/prefix
	// Only restricts apply/zip to these global partition indices
	// of the source dataset(s), and switches the result from
	// replace-dataset to merge-partitions semantics — the lineage-replay
	// mode: recovery rebuilds exactly the lost partitions on their new
	// owners without touching the survivors' work. For load it marks the
	// shipped partitions as a merge instead of a wholesale replacement.
	// Nil (the fast path) means "every partition this worker holds",
	// replacing dst.
	Only []int
}

// response is the worker→coordinator message.
type response struct {
	Err      string
	Parts    []partition    // fetch
	Counts   map[string]int // stats: dataset -> resident record count
	HTTPAddr string         // ping/serve: replica base address ("" = no replica)
}

// connBuffers returns the one reader and one writer a connection's
// frames go through for its whole life.
func connBuffers(c net.Conn) (*bufio.Reader, *bufio.Writer) {
	return bufio.NewReaderSize(c, connBufSize), bufio.NewWriterSize(c, connBufSize)
}

// writeFrame encodes v (a *request or *response) as one length-prefixed
// frame through bw and flushes it. A value that does not encode fails
// with ErrFrameEncode before anything reaches bw.
func writeFrame(bw *bufio.Writer, v any) error {
	w := frameWriter{bw: bw, sizing: true}
	w.message(v)
	if w.err != nil {
		return fmt.Errorf("%w: %v", ErrFrameEncode, w.err)
	}
	size := w.n
	if size > maxFrame {
		return fmt.Errorf("%w: %d-byte payload exceeds the 1 GiB frame cap", ErrFrameEncode, size)
	}
	if w.decoded > maxFrame {
		return fmt.Errorf("%w: decodes into %d bytes of blocks, past the 1 GiB budget", ErrFrameEncode, w.decoded)
	}
	w.sizing = false
	w.buf = binary.BigEndian.AppendUint32(bw.AvailableBuffer(), uint32(size))
	w.n = -len(w.buf) // the header is not payload
	w.message(v)
	w.commit()
	if w.werr != nil {
		return w.werr
	}
	if w.n != size {
		return fmt.Errorf("dist: frame encoder wrote %d of %d sized bytes", w.n, size)
	}
	return bw.Flush()
}

// readFrame decodes one length-prefixed frame from br into v (a
// *request or *response). A clean EOF at a frame boundary comes back as
// io.EOF; anything torn, oversized, or undecodable maps onto the typed
// Err* sentinels above. A corrupt frame is consumed whole, so the next
// read starts at the next frame boundary.
func readFrame(br *bufio.Reader, v any) error {
	hdr, err := br.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) == 0 {
			return io.EOF // connection closed between frames
		}
		return fmt.Errorf("%w: header: %v", ErrFrameTruncated, err)
	}
	n := binary.BigEndian.Uint32(hdr)
	br.Discard(4) //nolint:errcheck // the four bytes are buffered
	if n > maxFrame {
		return fmt.Errorf("%w: length prefix %d", ErrFrameTooLarge, n)
	}
	r := frameReader{br: br, rem: int(n), budget: maxFrame}
	r.message(v)
	if r.err == nil && r.rem != 0 {
		r.fail(errTrailing)
	}
	if r.err != nil && !errors.Is(r.err, ErrFrameTruncated) {
		br.Discard(r.rem) //nolint:errcheck // a short discard is the next read's truncation
	}
	return r.err
}

// Record kinds: how a partition's records are laid out on the wire. The
// typed kinds are the records a distributed fit moves in bulk: the
// documents it loads and the sparse rows it fetches.
const (
	kindGob    = iota // one gob blob: every other record type, mixed partitions
	kindString        // string
	kindSparse        // *linalg.SparseVector
)

// kindOf returns the typed kind of one record, or kindGob when the
// typed codec cannot carry it (any other type, a nil vector, a sparse
// vector whose index and value lengths differ).
func kindOf(rec any) int {
	switch v := rec.(type) {
	case string:
		return kindString
	case *linalg.SparseVector:
		if v != nil && len(v.Idx) == len(v.Val) {
			return kindSparse
		}
	}
	return kindGob
}

// partitionKind is the kind every record of recs shares, or kindGob.
// An empty partition is written as a kind and a zero count alone.
func partitionKind(recs []any) int {
	if len(recs) == 0 {
		return kindString
	}
	k := kindOf(recs[0])
	for _, r := range recs[1:] {
		if kindOf(r) != k {
			return kindGob
		}
	}
	return k
}

// frameWriter runs one message's encoding twice: a sizing pass that
// counts the exact payload length, the blocks the reader will presize,
// and gob-encodes the fallback partitions (the one step that can fail),
// then a writing pass that streams the same bytes through the
// connection's bufio.Writer.
type frameWriter struct {
	bw      *bufio.Writer
	sizing  bool
	n       int      // payload bytes counted (sizing) or committed (writing)
	decoded int      // sizing: bytes of blocks the reader presizes, as frameReader.charge counts them
	buf     []byte   // writing: bytes appended in bw's free space, not yet committed
	blobs   [][]byte // gob payloads of the fallback partitions, in encoding order
	blob    int      // writing: the next blob
	err     error    // sizing: why the message does not encode
	werr    error    // writing: bw's failure; the rest of the frame is dropped
}

// charge counts n bytes of blocks the reader will presize.
func (w *frameWriter) charge(n int) {
	if w.sizing {
		w.decoded += n
	}
}

// commit hands the pending bytes to bw (they already sit in its buffer)
// and makes room for the next uvarint. A failed flush leaves bw's
// buffer full for good, so it ends the writing: werr is set.
func (w *frameWriter) commit() {
	w.n += len(w.buf)
	w.bw.Write(w.buf) //nolint:errcheck // an error sticks in bw and surfaces at Flush
	if w.bw.Available() < binary.MaxVarintLen64 {
		w.werr = w.bw.Flush()
	}
	w.buf = w.bw.AvailableBuffer()
}

func (w *frameWriter) uvarint(v uint64) {
	switch {
	case w.sizing:
		w.n += (bits.Len64(v|1) + 6) / 7
	case w.werr != nil:
	default:
		if cap(w.buf)-len(w.buf) < binary.MaxVarintLen64 {
			w.commit()
		}
		w.buf = binary.AppendUvarint(w.buf, v)
	}
}

// int writes any int losslessly: negative values wrap to large uvarints.
func (w *frameWriter) int(v int) { w.uvarint(uint64(v)) }

// float writes f's bits byte-reversed, as gob does: small integers and
// short mantissas take a few bytes, and every value, NaNs included,
// round-trips exactly.
func (w *frameWriter) float(f float64) { w.uvarint(bits.ReverseBytes64(math.Float64bits(f))) }

// writeRaw writes p with no length prefix, copying it straight into
// bw's buffer a buffer-full at a time.
func writeRaw[T string | []byte](w *frameWriter, p T) {
	if w.sizing {
		w.n += len(p)
		return
	}
	for len(p) > 0 && w.werr == nil {
		if len(w.buf) == cap(w.buf) {
			w.commit()
			continue
		}
		k := copy(w.buf[len(w.buf):cap(w.buf)], p)
		w.buf = w.buf[:len(w.buf)+k]
		p = p[k:]
	}
}

func (w *frameWriter) string(s string) {
	w.charge(len(s))
	w.int(len(s))
	writeRaw(w, s)
}

func (w *frameWriter) bytes(b []byte) {
	w.charge(len(b))
	w.int(len(b))
	writeRaw(w, b)
}

func (w *frameWriter) message(v any) {
	switch m := v.(type) {
	case *request:
		w.string(m.Op)
		w.string(m.Dataset)
		w.string(m.Source)
		w.string(m.Source2)
		w.string(m.OpKind)
		w.bytes(m.OpState)
		w.string(m.Route)
		w.string(m.Kind)
		w.string(m.Ref)
		w.charge(len(m.Only) * wordSize)
		w.int(len(m.Only))
		for _, i := range m.Only {
			w.int(i)
		}
		w.parts(m.Parts)
	case *response:
		w.string(m.Err)
		w.string(m.HTTPAddr)
		w.int(len(m.Counts))
		for name, n := range m.Counts {
			w.string(name)
			w.int(n)
		}
		w.parts(m.Parts)
	default:
		w.err = fmt.Errorf("no wire codec for %T", v)
	}
}

func (w *frameWriter) parts(ps []partition) {
	w.charge(len(ps) * partSize)
	w.int(len(ps))
	for _, p := range ps {
		w.partition(p)
	}
}

// partition writes the global index, the record kind, the record count,
// then the kind's column totals (so the reader sizes each block once)
// and the records themselves.
func (w *frameWriter) partition(p partition) {
	recs := p.Records
	kind := partitionKind(recs)
	w.int(p.Index)
	w.int(kind)
	w.int(len(recs))
	if len(recs) == 0 {
		return
	}
	switch kind {
	case kindString:
		total := 0
		for _, r := range recs {
			total += len(r.(string))
		}
		w.charge(len(recs)*anySize + total)
		w.int(total)
		for _, r := range recs {
			s := r.(string)
			w.int(len(s))
			writeRaw(w, s)
		}
	case kindSparse:
		nnz := 0
		for _, r := range recs {
			nnz += len(r.(*linalg.SparseVector).Idx)
		}
		w.charge(len(recs)*(anySize+sparseSize) + nnz*(wordSize+8))
		w.int(nnz)
		for _, r := range recs {
			v := r.(*linalg.SparseVector)
			w.int(v.Dim)
			w.int(len(v.Idx))
			prev := 0
			for _, i := range v.Idx {
				w.int(i - prev)
				prev = i
			}
			for _, x := range v.Val {
				w.float(x)
			}
		}
	case kindGob:
		w.gob(recs)
	}
}

// gob writes recs as one gob blob, encoded in the sizing pass.
func (w *frameWriter) gob(recs []any) {
	if !w.sizing {
		w.bytes(w.blobs[w.blob])
		w.blob++
		return
	}
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(recs); err != nil {
		if w.err == nil {
			w.err = err
		}
		return
	}
	w.blobs = append(w.blobs, b.Bytes())
	w.bytes(b.Bytes())
}

// frameReader decodes one frame's payload from the connection's
// bufio.Reader. Every read is bounded by rem, the frame bytes not yet
// consumed, and every block presized from a count is paid for out of
// budget first: rem is what the length prefix claims, not what has
// arrived, so counts alone would let a short stream that claims a large
// frame size blocks many times the cap. The first failure sticks, and
// every read after it returns zero values, so decoders check err only
// before they allocate.
type frameReader struct {
	br     *bufio.Reader
	rem    int
	budget int // bytes of blocks the frame may still presize
	err    error
}

// charge pays n bytes of presized blocks out of the frame's budget (the
// writer counts the same bytes, so a frame it sends never fails here)
// and reports whether decoding can go on.
func (r *frameReader) charge(n int) bool {
	if r.err == nil {
		if r.budget -= n; r.budget < 0 {
			r.fail(errBudget)
		}
	}
	return r.err == nil
}

func (r *frameReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// truncated records that the stream ended inside the frame.
func (r *frameReader) truncated(err error) {
	r.fail(fmt.Errorf("%w: %d payload bytes missing: %v", ErrFrameTruncated, r.rem, err))
}

func (r *frameReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	k := min(r.rem, binary.MaxVarintLen64)
	if k == 0 {
		r.fail(errPastFrame)
		return 0
	}
	p, err := r.br.Peek(k)
	v, n := binary.Uvarint(p)
	switch {
	case n > 0:
		r.br.Discard(n) //nolint:errcheck // the bytes are buffered
		r.rem -= n
		return v
	case n < 0:
		r.fail(errPastFrame) // longer than any uint64
	case err != nil:
		r.truncated(err)
	default:
		r.fail(errPastFrame)
	}
	return 0
}

func (r *frameReader) int() int { return int(r.uvarint()) }

func (r *frameReader) float() float64 {
	return math.Float64frombits(bits.ReverseBytes64(r.uvarint()))
}

// count reads a count whose items each take at least minBytes of the
// frame, and fails the frame when that many could not fit in what is
// left of it: no count sizes an allocation past the frame.
func (r *frameReader) count(minBytes int) int {
	v := r.uvarint()
	if v > uint64(r.rem/minBytes) {
		r.fail(errCount)
		return 0
	}
	return int(v)
}

// within fails the frame unless n more items fit in a block of size
// with used already taken, and reports whether decoding can go on.
func (r *frameReader) within(n, used, size int) bool {
	if n > size-used {
		r.fail(errBlock)
	}
	return r.err == nil
}

// appendBytes moves the next n frame bytes into sb through br's buffer.
func (r *frameReader) appendBytes(sb *strings.Builder, n int) {
	for n > 0 && r.err == nil {
		p, err := r.br.Peek(min(n, r.br.Size()))
		sb.Write(p)
		r.br.Discard(len(p)) //nolint:errcheck // the bytes are buffered
		n -= len(p)
		r.rem -= len(p)
		if err != nil {
			r.truncated(err)
		}
	}
}

func (r *frameReader) string() string {
	n := r.count(1)
	if n == 0 || !r.charge(n) {
		return ""
	}
	var sb strings.Builder
	sb.Grow(n)
	r.appendBytes(&sb, n)
	return sb.String()
}

// blockString reads one length-prefixed string into the shared block sb
// (grown to its size up front, so it never moves) and returns it.
func (r *frameReader) blockString(sb *strings.Builder) string {
	n := r.count(1)
	if !r.within(n, sb.Len(), sb.Cap()) {
		return ""
	}
	start := sb.Len()
	r.appendBytes(sb, n)
	return sb.String()[start:]
}

func (r *frameReader) bytes() []byte {
	n := r.count(1)
	if n == 0 || !r.charge(n) {
		return nil
	}
	b := make([]byte, n)
	if m, err := io.ReadFull(r.br, b); err != nil {
		r.rem -= m
		r.truncated(err)
		return nil
	}
	r.rem -= n
	return b
}

func (r *frameReader) message(v any) {
	switch m := v.(type) {
	case *request:
		m.Op = r.string()
		m.Dataset = r.string()
		m.Source = r.string()
		m.Source2 = r.string()
		m.OpKind = r.string()
		m.OpState = r.bytes()
		m.Route = r.string()
		m.Kind = r.string()
		m.Ref = r.string()
		if n := r.count(1); n > 0 && r.charge(n*wordSize) {
			m.Only = make([]int, n)
			for i := range m.Only {
				m.Only[i] = r.int()
			}
		}
		m.Parts = r.parts()
	case *response:
		m.Err = r.string()
		m.HTTPAddr = r.string()
		// Counts is not presized: a stats reply names a few datasets, and
		// each entry is paid for by its own bytes arriving.
		if n := r.count(2); n > 0 && r.err == nil {
			m.Counts = make(map[string]int)
			for i := 0; i < n && r.err == nil; i++ {
				name := r.string()
				m.Counts[name] = r.int()
			}
		}
		m.Parts = r.parts()
	default:
		r.fail(fmt.Errorf("dist: no wire codec for %T", v))
	}
}

// parts reads a partition list. The list is allocated only once its
// first partition has decoded, so a frame that lies in its first
// partition costs nothing.
func (r *frameReader) parts() []partition {
	n := r.count(3) // index, kind and record count: a byte each at least
	if !r.charge(n * partSize) {
		return nil
	}
	var out []partition
	for i := 0; i < n; i++ {
		p := r.partition()
		if r.err != nil {
			return nil
		}
		if out == nil {
			out = make([]partition, 0, n)
		}
		out = append(out, p)
	}
	return out
}

// partition reads one partition. Every count is checked against the
// frame, and the blocks it sizes are charged to the budget, before they
// are allocated — each kind's reader reads its column totals first — and
// each decoded column is one block, each record a capped sub-slice of it.
func (r *frameReader) partition() partition {
	p := partition{Index: r.int()}
	kind := r.uvarint()
	n := r.count(1)
	if kind > kindSparse {
		r.fail(errKind)
	}
	if n == 0 || r.err != nil {
		return p // a zero-record partition decodes as nil
	}
	switch kind {
	case kindString:
		p.Records = r.stringRecords(n)
	case kindSparse:
		p.Records = r.sparseRecords(n)
	case kindGob:
		p.Records = r.gobRecords(n)
	}
	return p
}

// full fails the frame unless a block was filled exactly.
func (r *frameReader) full(used, size int) {
	if used != size {
		r.fail(errBlock)
	}
}

func (r *frameReader) stringRecords(n int) []any {
	total := r.count(1)
	if !r.charge(n*anySize + total) {
		return nil
	}
	recs := make([]any, n)
	var sb strings.Builder
	sb.Grow(total)
	for i := range recs {
		recs[i] = r.blockString(&sb)
	}
	r.full(sb.Len(), total)
	return recs
}

func (r *frameReader) sparseRecords(n int) []any {
	nnz := r.count(2) // index delta and value: a byte each at least
	if !r.charge(n*(anySize+sparseSize) + nnz*(wordSize+8)) {
		return nil
	}
	recs := make([]any, n)
	vecs := make([]linalg.SparseVector, n)
	idx, val, at := make([]int, nnz), make([]float64, nnz), 0
	for i := range vecs {
		v := &vecs[i]
		v.Dim = r.int()
		c := r.count(2)
		if !r.within(c, at, nnz) {
			return nil
		}
		v.Idx, v.Val = idx[at:at+c:at+c], val[at:at+c:at+c]
		prev := 0
		for j := range v.Idx {
			prev += r.int()
			v.Idx[j] = prev
		}
		for j := range v.Val {
			v.Val[j] = r.float()
		}
		at += c
		recs[i] = v
	}
	r.full(at, nnz)
	return recs
}

func (r *frameReader) gobRecords(n int) []any {
	blob := r.bytes()
	if r.err != nil {
		return nil
	}
	var recs []any
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&recs); err != nil {
		r.fail(fmt.Errorf("%w: gob partition: %v", ErrFrameCorrupt, err))
		return nil
	}
	if len(recs) != n {
		r.fail(errBlock)
		return nil
	}
	return recs
}

// RegisterRecordType registers a concrete record type for wire
// transport. Partitions of documents and sparse vectors travel as typed
// column blocks; a partition holding any other type, or records of mixed
// types, crosses as one gob blob, and gob needs its concrete types on
// both ends.
// Pipelines with custom record types call this in both the coordinator
// and worker binaries. A fit that ships an unregistered type fails with
// ErrFrameEncode and leaves the cluster usable.
func RegisterRecordType(v any) { gob.Register(v) }

func init() {
	// The built-in record types, for the partitions that travel as gob:
	// token/n-gram lists, term-frequency maps, dense feature/label
	// vectors, images and their descriptor sets, and partitions that mix
	// them with documents or sparse featurizations.
	gob.Register("")
	gob.Register([]string(nil))
	gob.Register(map[string]float64{})
	gob.Register([]float64(nil))
	gob.Register(&linalg.SparseVector{})
	gob.Register(&image.Image{})
	gob.Register([][]float64(nil))
}
