// Package dist is the distributed tier: a coordinator that fits
// pipelines data-parallel across worker processes holding
// engine.Collection partitions, and a consistent-hashing Router that
// fronts N serve.Server replicas booted from one registry artifact id.
//
// The wire protocol is deliberately lean — length-prefixed gob frames
// over TCP, one self-contained request or response per frame — and
// reuses the artifact-persistence codecs for everything interesting:
// operators cross the wire as (state kind, state bytes) pairs exactly as
// they are persisted on disk (core.EncodeOp / core.DecodeOp), so any
// operator a pipeline can Save is an operator a worker can execute.
// Records cross inside []any partitions and therefore need their
// concrete types gob-registered on both ends; RegisterRecordType extends
// the built-in set (strings, dense and sparse vectors, token lists,
// term-frequency maps — the evaluation pipelines' record types).
//
// Framing: a frame is a big-endian uint32 payload length followed by
// that many bytes of gob, produced by a fresh encoder per frame. Fresh
// encoders cost a re-sent type description per frame but make failure
// semantics clean: a torn or corrupt frame kills one request, not the
// decoder stream, and either side can drop the connection at any frame
// boundary. Workers answer strictly in request order per connection;
// the coordinator serializes in-flight requests per connection and
// fans out across workers with one connection each.
package dist

import (
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"keystoneml/internal/image"
	"keystoneml/internal/linalg"
)

// maxFrame bounds a single frame (a full dataset partition set can ride
// one frame, so the cap is generous; it exists to fail fast on a
// corrupt length prefix, not to limit payloads).
const maxFrame = 1 << 30

// Typed frame-decoding failures. Every malformed input readFrame can
// meet maps onto one of these (via errors.Is), so callers distinguish
// protocol damage from ordinary I/O without string matching — and the
// decoder never panics or allocates past the cap on garbage input.
var (
	// ErrFrameTooLarge: the length prefix exceeds the 1 GiB cap —
	// almost always a corrupt or misaligned prefix, not a real payload.
	ErrFrameTooLarge = errors.New("dist: frame length exceeds 1 GiB cap")
	// ErrFrameTruncated: the stream ended inside a frame (torn header
	// or payload shorter than its prefix).
	ErrFrameTruncated = errors.New("dist: truncated frame")
	// ErrFrameCorrupt: the payload arrived whole but is not a valid gob
	// message for the expected type.
	ErrFrameCorrupt = errors.New("dist: corrupt frame payload")
	// ErrFrameEncode: the message could not be gob-encoded — in practice
	// a record type missing from RegisterRecordType. Nothing was written:
	// it is the sender's fault, not the connection's or the peer's, and
	// sending again cannot help.
	ErrFrameEncode = errors.New("dist: frame not encodable")
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

// writeFrame gob-encodes v with a fresh encoder and writes it as one
// length-prefixed frame. A value that does not encode fails with
// ErrFrameEncode before anything reaches w.
func writeFrame(w io.Writer, v any) error {
	bw := &sliceWriter{}
	if err := gob.NewEncoder(bw).Encode(v); err != nil {
		return fmt.Errorf("%w: %v", ErrFrameEncode, err)
	}
	buf := bw.b
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(buf)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(buf)
	return err
}

// readFrame reads one length-prefixed frame into v. A clean EOF at a
// frame boundary comes back as io.EOF; anything torn, oversized, or
// undecodable maps onto the typed Err* sentinels above.
func readFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return io.EOF // connection closed between frames
		}
		return fmt.Errorf("%w: header: %v", ErrFrameTruncated, err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return fmt.Errorf("%w: length prefix %d", ErrFrameTooLarge, n)
	}
	buf := make([]byte, n)
	if m, err := io.ReadFull(r, buf); err != nil {
		return fmt.Errorf("%w: got %d of %d payload bytes: %v", ErrFrameTruncated, m, n, err)
	}
	if err := gob.NewDecoder(&sliceReader{b: buf}).Decode(v); err != nil {
		return fmt.Errorf("%w: %v", ErrFrameCorrupt, err)
	}
	return nil
}

// sliceWriter/sliceReader avoid bytes.Buffer's unused capacity games for
// the simple encode-whole/decode-whole frames used here.
type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) { w.b = append(w.b, p...); return len(p), nil }

type sliceReader struct {
	b []byte
	i int
}

func (r *sliceReader) Read(p []byte) (int, error) {
	if r.i >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.i:])
	r.i += n
	return n, nil
}

// RegisterRecordType registers a concrete record type for wire
// transport (records travel as []any inside partitions, so gob needs
// the concrete types on both ends). The evaluation pipelines' record
// types are pre-registered; pipelines with custom record types call
// this in both the coordinator and worker binaries. A fit that ships an
// unregistered type fails with ErrFrameEncode and leaves the cluster
// usable.
func RegisterRecordType(v any) { gob.Register(v) }

func init() {
	// The record types of the built-in evaluation pipelines: documents,
	// token/n-gram lists, term-frequency maps, sparse featurizations,
	// dense feature/label vectors, images and their descriptor sets.
	gob.Register("")
	gob.Register([]string(nil))
	gob.Register(map[string]float64{})
	gob.Register([]float64(nil))
	gob.Register(&linalg.SparseVector{})
	gob.Register(&image.Image{})
	gob.Register([][]float64(nil))
}
