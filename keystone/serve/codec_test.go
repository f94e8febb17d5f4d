package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"keystoneml/internal/httpbody"
	"keystoneml/keystone"
)

// The numeric codecs' contract is "what encoding/json did, to the bit".
// The oracle below is how they decoded before the scanner —
// json.Unmarshal into wire structs, then the same shape checks — kept as
// the reference every test and fuzz target here compares against.

type oracleImage struct {
	Width    int       `json:"width"`
	Height   int       `json:"height"`
	Channels int       `json:"channels"`
	Pixels   []float64 `json:"pixels"`
}

func (in oracleImage) image() *keystone.Image {
	return &keystone.Image{Width: in.Width, Height: in.Height, Channels: in.Channels, Pix: in.Pixels}
}

// rec is one decoded record in a form all four decoders share.
type rec struct {
	dims [3]int
	vals []float64
}

func vecRecs(rows [][]float64, err error) ([]rec, error) {
	if err != nil {
		return nil, err
	}
	out := make([]rec, len(rows))
	for i, v := range rows {
		out[i] = rec{vals: v}
	}
	return out, nil
}

func imageRecs(ims []*keystone.Image, err error) ([]rec, error) {
	if err != nil {
		return nil, err
	}
	out := make([]rec, len(ims))
	for i, im := range ims {
		out[i] = rec{dims: [3]int{im.Width, im.Height, im.Channels}, vals: im.Pix}
	}
	return out, nil
}

// wireFormat is one decoder under test beside its oracle.
type wireFormat struct {
	name    string
	body    string // a request holding the one number %s
	decode  func(body []byte) ([]rec, error)
	oracle  func(body []byte) ([]rec, error)
	members []string // the member names the decoder knows
}

func wireFormats(dim int) []wireFormat {
	vc := VectorCodec{Dim: dim}
	return []wireFormat{{
		name: "vector", body: `{"vector":[%s]}`, members: []string{"vector"},
		decode: func(b []byte) ([]rec, error) {
			v, err := vc.DecodeRequest(b)
			return vecRecs([][]float64{v}, err)
		},
		oracle: func(b []byte) ([]rec, error) {
			var req struct {
				Vector []float64 `json:"vector"`
			}
			if err := json.Unmarshal(b, &req); err != nil {
				return nil, err
			}
			v, err := vc.check(req.Vector)
			return vecRecs([][]float64{v}, err)
		},
	}, {
		name: "vectors", body: `{"vectors":[[%s]]}`, members: []string{"vectors"},
		decode: func(b []byte) ([]rec, error) { return vecRecs(vc.DecodeBatch(b)) },
		oracle: func(b []byte) ([]rec, error) {
			var req struct {
				Vectors [][]float64 `json:"vectors"`
			}
			if err := json.Unmarshal(b, &req); err != nil {
				return nil, err
			}
			return vecRecs(req.Vectors, vc.checkBatch(req.Vectors))
		},
	}, {
		name: "image", body: `{"width":1,"height":1,"pixels":[%s]}`,
		members: []string{"width", "height", "channels", "pixels"},
		decode: func(b []byte) ([]rec, error) {
			im, err := ImageCodec{}.DecodeRequest(b)
			return imageRecs([]*keystone.Image{im}, err)
		},
		oracle: func(b []byte) ([]rec, error) {
			var in oracleImage
			if err := json.Unmarshal(b, &in); err != nil {
				return nil, err
			}
			im := in.image()
			return imageRecs([]*keystone.Image{im}, checkImage(im))
		},
	}, {
		name: "images", body: `{"images":[{"width":1,"height":1,"pixels":[%s]}]}`,
		members: []string{"images", "width", "height", "channels", "pixels"},
		decode:  func(b []byte) ([]rec, error) { return imageRecs(ImageCodec{}.DecodeBatch(b)) },
		oracle: func(b []byte) ([]rec, error) {
			var req struct {
				Images []oracleImage `json:"images"`
			}
			if err := json.Unmarshal(b, &req); err != nil {
				return nil, err
			}
			if len(req.Images) == 0 {
				return nil, fmt.Errorf("empty")
			}
			ims := make([]*keystone.Image, len(req.Images))
			for i, in := range req.Images {
				ims[i] = in.image()
				if err := checkImage(ims[i]); err != nil {
					return nil, err
				}
			}
			return imageRecs(ims, nil)
		},
	}}
}

func sameRecs(a, b []rec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].dims != b[i].dims || len(a[i].vals) != len(b[i].vals) {
			return false
		}
		for j, x := range a[i].vals {
			if math.Float64bits(x) != math.Float64bits(b[i].vals[j]) {
				return false
			}
		}
	}
	return true
}

var (
	memberName  = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"\s*:`)
	nullElement = regexp.MustCompile(`[\[,]\s*null\s*[,\]]`)
)

// stricter reports whether body uses one of the places where the scanner
// deliberately departs from encoding/json, all answered 400 in practice:
// a member name that is a known one only after case folding or
// unescaping (the scanner compares names as written), a null element in
// an array (encoding/json stores 0), or "images" given twice
// (encoding/json decodes the second array over the first's elements,
// golang/go#21092, the scanner starts each image empty).
func stricter(body []byte, members []string) bool {
	images := 0
	for _, m := range memberName.FindAllSubmatch(body, -1) {
		var name string
		if json.Unmarshal(m[0][:bytes.LastIndexByte(m[0], '"')+1], &name) != nil {
			continue
		}
		if string(m[1]) == "images" {
			images++
		}
		for _, known := range members {
			if string(m[1]) != known && strings.EqualFold(name, known) {
				return true
			}
		}
	}
	return images > 1 || nullElement.Match(body)
}

// agree holds the scanner to the oracle on one body: same verdict, same
// bits — or the body is one of the stricter cases. It returns the
// scanner's verdict.
func agree(t *testing.T, f wireFormat, body []byte) bool {
	t.Helper()
	got, gotErr := f.decode(body)
	want, wantErr := f.oracle(body)
	if (gotErr == nil) == (wantErr == nil) && sameRecs(got, want) || stricter(body, f.members) {
		return gotErr == nil
	}
	t.Errorf("%s %q:\n scanner %v, %v\n oracle  %v, %v", f.name, body, got, gotErr, want, wantErr)
	return gotErr == nil
}

// wireTable is the decoder contract by example; it also seeds the fuzz
// targets. ok is the verdict both decoders must reach; strict marks the
// bodies the scanner alone refuses.
var wireTable = []struct {
	format string
	body   string
	ok     bool
	strict bool
}{
	// Member order, unknown members of every type around the array,
	// duplicates (last wins), null members, whitespace.
	{"image", `{"width":2,"height":1,"channels":2,"pixels":[1,2,3,4]}`, true, false},
	{"image", `{"pixels":[1,2,3,4],"channels":2,"height":1,"width":2}`, true, false},
	{"image", `{"channels":2,"height":1,"pixels":[1,2,3,4],"width":2}`, true, false},
	{"image", `{"height":2,"pixels":[1,2],"width":1}`, true, false},
	{"image", `{"id":7,"tags":["a",{"b":[null,true,false]}],"meta":{"k":{"z":-1.5e-3}},"width":1,"height":1,"pixels":[9],"note":"q\"\\\/\b\f\n\r\t\u00e9","after":[[],{}]}`, true, false},
	{"image", `{"width":5,"width":1,"height":1,"pixels":[1,2,3],"pixels":[4]}`, true, false},
	{"image", `{"width":1,"height":1,"channels":null,"pixels":[4],"width":null}`, true, false},
	{"image", `{"width":1,"height":1,"pixels":[4],"pixels":null}`, false, false},
	{"image", " \t\r\n{ \"width\" : 1 , \"height\" :\n1 , \"pixels\" : [ 1 ] } \n", true, false},
	{"image", `{"width":-0,"height":1,"pixels":[]}`, false, false},
	{"vector", `{"vector":[1,2,3]}`, true, false},
	{"vector", `{"a":"vector","vector":[1],"b":{"vector":[2,3]}}`, true, false},
	{"vector", `{"vector":[1,2],"vector":[3]}`, true, false},
	{"vector", `{"vector":[3],"vector":null}`, false, false},
	{"vector", ` { "vector" : [ 1 , 2 ] } `, true, false},
	{"vectors", `{"vectors":[[1,2],[3,4]]}`, true, false},
	{"vectors", `{"vectors":[[1,2],[3]]}`, false, false}, // ragged: 400 even when the route declares no Dim
	{"vectors", `{"vectors":[[1],[2],[3,4]]}`, false, false},
	{"vectors", `{"x":[[1]],"vectors":[[1,2]],"vectors":[[5],[6]],"y":null}`, true, false},
	{"vectors", "{\"vectors\" : [ [ 1 ,2 ] ,\n[ 3 , 4 ] ] }", true, false},
	{"images", `{"images":[{"width":1,"height":1,"pixels":[5]},{"pixels":[1,2],"channels":2,"height":1,"width":1,"x":[0]}]}`, true, false},
	{"images", ` { "images" : [ { "width" : 1 , "height" : 1 , "pixels" : [ 5 ] } ] } `, true, false},

	// Shape errors.
	{"image", `{"width":2,"height":2,"pixels":[1,2,3]}`, false, false},
	{"image", `{"width":2,"height":2,"channels":-1,"pixels":[1,2,3,4]}`, false, false},
	{"image", `{"width":0,"height":2,"pixels":[]}`, false, false},
	{"image", `{"width":2.0,"height":1,"pixels":[1,2]}`, false, false},
	{"image", `{"width":2e0,"height":1,"pixels":[1,2]}`, false, false},
	{"image", `{"width":"2","height":1,"pixels":[1,2]}`, false, false},
	{"image", `{"width":99999999999999999999,"height":1,"pixels":[1]}`, false, false},
	{"image", `{"width":4294967296,"height":4294967296,"pixels":[]}`, false, false},
	{"image", `{"width":3037000500,"height":3037000500,"channels":2,"pixels":[1]}`, false, false},
	{"image", `{"pixels":[1]}`, false, false},
	{"vector", `{"vector":[]}`, false, false},
	{"vector", `{"vectr":[1]}`, false, false},
	{"vector", `{"vector":{"0":1}}`, false, false},
	{"vector", `{"vector":"1"}`, false, false},
	{"vector", `{"vector":[1,"2"]}`, false, false},
	{"vector", `{"vector":[1,[2]]}`, false, false},
	{"vector", `{"vector":[true]}`, false, false},
	{"vectors", `{"vectors":[]}`, false, false},
	{"vectors", `{"vectors":[[1],[]]}`, false, false},
	{"vectors", `{"vectors":[1,2]}`, false, false},
	{"vectors", `{"vectors":[null]}`, false, false},
	{"images", `{"images":[]}`, false, false},
	{"images", `{"images":[null]}`, false, false},
	{"images", `{"images":[{"width":1,"height":1,"pixels":[5]},{"width":1,"height":1,"pixels":[]}]}`, false, false},

	// Malformed JSON.
	{"vector", ``, false, false},
	{"vector", `null`, false, false},
	{"vector", `[1]`, false, false},
	{"vector", `{"vector":[1]} x`, false, false},
	{"vector", `{"vector":[1]}{"vector":[1]}`, false, false},
	{"vector", `{"vector":[1,]}`, false, false},
	{"vector", `{"vector":[,1]}`, false, false},
	{"vector", `{"vector":[1 2]}`, false, false},
	{"vector", `{"vector":[1],}`, false, false},
	{"vector", `{"vector" [1]}`, false, false},
	{"vector", `{vector:[1]}`, false, false},
	{"vector", `{'vector':[1]}`, false, false},
	{"vector", "{\"vector\":[1],\"s\":\"a\nb\"}", false, false},
	{"vector", `{"vector":[1],"s":"\x41"}`, false, false},
	{"vector", `{"vector":[1],"s":"\u12g4"}`, false, false},
	{"vector", `{"vector":[1],"s":tru}`, false, false},
	{"vector", `{"vector":[1],"s":nul}`, false, false},
	{"vector", `{"vector":[1],"s":-}`, false, false},
	{"vector", `{"vector":[1],"s":1.e2}`, false, false},
	{"vector", `{"vector":[1],"s":[1,2}`, false, false},
	{"vector", "{\"vector\":[1]}\x00", false, false},
	{"vector", "\ufeff{\"vector\":[1]}", false, false},
	{"vector", "{\"vector\":[1\f]}", false, false},

	// Where the scanner is stricter than encoding/json.
	{"vector", `{"Vector":[1]}`, false, true},
	{"vector", `{"VECTOR":[1]}`, false, true},
	{"vector", `{"\u0076ector":[1]}`, false, true},
	{"vector", `{"vector":[1,null]}`, false, true},
	{"vectors", `{"Vectors":[[1]]}`, false, true},
	{"image", `{"Width":1,"height":1,"pixels":[1]}`, false, true},
	{"image", `{"width":1,"height":1,"Pixels":[1]}`, false, true},
	{"image", `{"width":1,"height":1,"pixels":[null]}`, false, true},
	{"images", `{"IMAGES":[{"width":1,"height":1,"pixels":[1]}]}`, false, true},
}

// numberTable is the number grammar by example, tried as an array
// element of every format.
var numberTable = []struct {
	num string
	ok  bool
}{
	{"0", true}, {"-0", true}, {"-0.0", true}, {"1", true}, {"-1", true}, {"10", true},
	{"1.5", true}, {"0.1", true}, {"1e2", true}, {"1E+2", true}, {"1e-2", true}, {"-1.25E-02", true},
	{"1e-320", true}, {"4.9e-324", true}, {"1e-400", true}, {"1.7976931348623157e308", true},
	{"0.30000000000000004", true}, {"2.2250738585072011e-308", true},
	{"0.12345678901234567", true}, {"123456789012345678", true},
	{"0.123456789012345678901234567890", true}, {"123456789012345678901234567890", true},
	{"9007199254740993", true}, {"1.00000000000000011102230246251565404236316680908203125", true},
	{"NaN", false}, {"Infinity", false}, {"-Infinity", false}, {"inf", false}, {"+1", false},
	{".5", false}, {"5.", false}, {"01", false}, {"-01", false}, {"00", false}, {"0x1p-2", false}, {"0x10", false},
	{"1_0", false}, {"1e999", false}, {"-1e999", false}, {"1e", false}, {"1e+", false}, {"1.e1", false},
	{"-", false}, {"--1", false}, {"1.2.3", false}, {"1e2e3", false}, {"١", false}, {"", false},
}

func formatByName(t testing.TB, dim int, name string) wireFormat {
	t.Helper()
	for _, f := range wireFormats(dim) {
		if f.name == name {
			return f
		}
	}
	t.Fatalf("no wire format %q", name)
	return wireFormat{}
}

func TestDecodeMatchesOracle(t *testing.T) {
	for _, c := range wireTable {
		f := formatByName(t, 0, c.format)
		if ok := agree(t, f, []byte(c.body)); ok != c.ok {
			t.Errorf("%s %q: accepted = %v, want %v", c.format, c.body, ok, c.ok)
		}
		if _, err := f.oracle([]byte(c.body)); (err == nil) != (c.ok || c.strict) {
			t.Errorf("%s %q: oracle error = %v; the table expects it to accept = %v", c.format, c.body, err, c.ok || c.strict)
		}
	}
	for _, f := range wireFormats(0) {
		for _, c := range numberTable {
			body := []byte(fmt.Sprintf(f.body, c.num))
			if ok := agree(t, f, body); ok != c.ok {
				t.Errorf("%s %q: accepted = %v, want %v", f.name, body, ok, c.ok)
			}
		}
	}
}

// TestDecodeDepth: an unknown member may nest as deep as encoding/json
// allows and no deeper, open containers or empty ones, and the count
// comes back down when they close.
func TestDecodeDepth(t *testing.T) {
	nest := func(n int, leaf string) string {
		return strings.Repeat("[", n) + leaf + strings.Repeat("]", n)
	}
	for _, f := range wireFormats(0) {
		// The unknown member goes in the body's innermost object, which
		// has this many containers around its members.
		at := strings.LastIndexByte(f.body, '{') + 1
		n := maxDepth - strings.Count(f.body[:at], "{") - strings.Count(f.body[:at], "[")
		for _, c := range []struct {
			x  string
			ok bool
		}{
			{nest(n, "0"), true},
			{nest(n-1, "[]"), true},
			{nest(n+1, "0"), false},
			{nest(n, "{}"), false},
			{nest(n, "0") + `,"y":` + nest(n, "0"), true},
		} {
			body := []byte(fmt.Sprintf(f.body[:at]+`"x":`+c.x+","+f.body[at:], "1"))
			if ok := agree(t, f, body); ok != c.ok {
				t.Errorf("%s, %d-byte body: accepted = %v, want %v", f.name, len(body), ok, c.ok)
			}
		}
	}
}

// TestDecodeDim: the route's declared dimensionality is checked on every
// row, so a ragged batch is refused.
func TestDecodeDim(t *testing.T) {
	for _, c := range []struct {
		format, body string
		ok           bool
	}{
		{"vector", `{"vector":[1,2]}`, true},
		{"vector", `{"vector":[1,2,3]}`, false},
		{"vector", `{"vector":[1]}`, false},
		{"vectors", `{"vectors":[[1,2],[3,4],[5,6]]}`, true},
		{"vectors", `{"vectors":[[1,2],[3]]}`, false},
		{"vectors", `{"vectors":[[1,2],[3,4,5]]}`, false},
	} {
		if ok := agree(t, formatByName(t, 2, c.format), []byte(c.body)); ok != c.ok {
			t.Errorf("Dim 2, %s %q: accepted = %v, want %v", c.format, c.body, ok, c.ok)
		}
	}
}

// TestDecodeBatchRowsShareNothing: rows are slices of one array, so
// appending to one must not write into the next.
func TestDecodeBatchRowsShareNothing(t *testing.T) {
	rows, err := VectorCodec{Dim: 2}.DecodeBatch([]byte(`{"vectors":[[1,2],[3,4]]}`))
	if err != nil {
		t.Fatal(err)
	}
	_ = append(rows[0], 99)
	if rows[1][0] != 3 {
		t.Fatalf("append to row 0 overwrote row 1: %v", rows)
	}
}

// smallVision and smallSpeech are valid requests of the benchmark
// workloads' shapes, small enough to try every prefix of.
func smallVision(t testing.TB) []byte { return visionBody(t, 4) }

func smallSpeech(t testing.TB) []byte { return speechBody(t, 3, 5) }

// visionBody marshals one size×size×3 image the way bench/e2e does: a
// map, so the members arrive sorted and "width" follows the pixels.
func visionBody(t testing.TB, size int) []byte {
	im := keystone.SyntheticImages(1, size, 3, 4, 1).Records[0]
	return mustJSON(t, map[string]any{"width": im.Width, "height": im.Height, "channels": im.Channels, "pixels": im.Pix})
}

func speechBody(t testing.TB, n, dim int) []byte {
	return mustJSON(t, map[string]any{"vectors": keystone.SyntheticDenseVectors(n, dim, 8, 1).Records})
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDecodeTruncated: every proper prefix of a valid request is an
// error — never a panic, never a partial record.
func TestDecodeTruncated(t *testing.T) {
	for name, body := range map[string][]byte{"image": smallVision(t), "vectors": smallSpeech(t)} {
		f := formatByName(t, 0, name)
		if !agree(t, f, body) {
			t.Fatalf("%s: the whole body %q is refused", name, body)
		}
		for n := 0; n < len(body); n++ {
			if agree(t, f, body[:n]) {
				t.Errorf("%s: accepted the %d-byte prefix %q", name, n, body[:n])
			}
		}
	}
	vision, speech := smallVision(t), smallSpeech(t)
	for n := 0; n < len(vision); n++ {
		if im, err := (ImageCodec{}).DecodeRequest(vision[:n]); err == nil || im != nil {
			t.Errorf("image prefix %d: %v, %v", n, im, err)
		}
	}
	for n := 0; n < len(speech); n++ {
		if rows, err := (VectorCodec{}).DecodeBatch(speech[:n]); err == nil || rows != nil {
			t.Errorf("vectors prefix %d: %v, %v", n, rows, err)
		}
	}
}

// TestDecodeDeclaredSize: the pixel array is sized by what the body
// holds, so dimensions promising 24 GB of pixels cost no more than the
// three that were sent.
func TestDecodeDeclaredSize(t *testing.T) {
	for _, body := range []string{
		`{"width":1e9,"height":1,"channels":3,"pixels":[1,2,3]}`,
		`{"width":1000000000,"height":1,"channels":3,"pixels":[1,2,3]}`,
		`{"width":3037000500,"height":3037000500,"channels":3,"pixels":[1,2,3]}`,
		`{"images":[{"width":1000000000,"height":1,"channels":3,"pixels":[1,2,3]}]}`,
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var err error
		if strings.HasPrefix(body, `{"images"`) {
			_, err = ImageCodec{}.DecodeBatch([]byte(body))
		} else {
			_, err = ImageCodec{}.DecodeRequest([]byte(body))
		}
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", body)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("%s: allocated %d bytes", body, n)
		}
	}
}

// TestDecodeAllocs: a request costs its records and one number array,
// whatever its size.
func TestDecodeAllocs(t *testing.T) {
	vision, speech := visionBody(t, 48), speechBody(t, 64, 40)
	if n := testing.AllocsPerRun(10, func() {
		if _, err := (ImageCodec{}).DecodeRequest(vision); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("image request: %v allocations, want <= 3", n)
	}
	if n := testing.AllocsPerRun(10, func() {
		if _, err := (VectorCodec{Dim: 40}).DecodeBatch(speech); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Errorf("64x40 batch: %v allocations, want <= 4", n)
	}
}

func seedFuzz(f *testing.F, formats ...string) {
	for _, c := range wireTable {
		for _, name := range formats {
			if c.format == name {
				f.Add([]byte(c.body))
			}
		}
	}
	for _, wf := range wireFormats(0) {
		for _, name := range formats {
			if wf.name == name {
				for _, c := range numberTable {
					f.Add([]byte(fmt.Sprintf(wf.body, c.num)))
				}
			}
		}
	}
}

// FuzzVectorDecode: on any input VectorCodec reaches the oracle's verdict
// and values, with and without a declared Dim.
func FuzzVectorDecode(f *testing.F) {
	seedFuzz(f, "vector", "vectors")
	f.Add(smallSpeech(f))
	f.Add([]byte(`{"vectors":[[1,2],[3,4],[5,6,7]]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, dim := range []int{0, 2} {
			agree(t, formatByName(t, dim, "vector"), body)
			agree(t, formatByName(t, dim, "vectors"), body)
		}
	})
}

// FuzzImageDecode is FuzzVectorDecode for ImageCodec.
func FuzzImageDecode(f *testing.F) {
	seedFuzz(f, "image", "images")
	f.Add(smallVision(f))
	f.Fuzz(func(t *testing.T, body []byte) {
		agree(t, formatByName(t, 0, "image"), body)
		agree(t, formatByName(t, 0, "images"), body)
	})
}

// The before/after rows CHANGES.md quotes: each benchmark runs the code
// under "scanner" (or "sized") and what it replaced under "oracle".

var benchSink any

func benchDecode(b *testing.B, f wireFormat, body []byte) {
	for i, decode := range []func([]byte) ([]rec, error){f.decode, f.oracle} {
		b.Run([]string{"scanner", "oracle"}[i], func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := decode(body)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = out
			}
		})
	}
}

func BenchmarkDecodeImage(b *testing.B) {
	benchDecode(b, formatByName(b, 0, "image"), visionBody(b, 48))
}

func BenchmarkDecodeVectors(b *testing.B) {
	benchDecode(b, formatByName(b, 40, "vectors"), speechBody(b, 64, 40))
}

func BenchmarkReadBody(b *testing.B) {
	body := visionBody(b, 48)
	for i, read := range []func(http.ResponseWriter, *http.Request) ([]byte, error){
		func(w http.ResponseWriter, r *http.Request) ([]byte, error) {
			body, _, err := httpbody.Read(w, r)
			return body, err
		},
		func(_ http.ResponseWriter, r *http.Request) ([]byte, error) {
			return io.ReadAll(io.LimitReader(r.Body, httpbody.Max))
		},
	} {
		b.Run([]string{"sized", "oracle"}[i], func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, err := read(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
				if err != nil || len(got) != len(body) {
					b.Fatalf("read %d of %d bytes: %v", len(got), len(body), err)
				}
				benchSink = got
			}
		})
	}
}
