package httpbody

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// unreadable is a body that fails the test if a byte of it is read.
type unreadable struct{ t *testing.T }

func (u unreadable) Read([]byte) (int, error) {
	u.t.Error("body read although its declared length is over Max")
	return 0, io.EOF
}

// zeros is an endless body of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

func TestRead(t *testing.T) {
	small := bytes.Repeat([]byte("0123456789"), 100)
	cases := []struct {
		name string
		// declared is the request's Content-Length (-1: unknown).
		declared   int64
		body       func(t *testing.T) io.Reader
		wantStatus int
		want       []byte // the body Read must return when wantStatus is 0
		wantCap    int    // cap(body) when > 0
	}{
		{
			name:       "declared over Max refused unread",
			declared:   Max + 1,
			body:       func(t *testing.T) io.Reader { return unreadable{t} },
			wantStatus: http.StatusRequestEntityTooLarge,
		},
		{
			name:     "declared small returned whole in one buffer",
			declared: int64(len(small)),
			body:     func(*testing.T) io.Reader { return bytes.NewReader(small) },
			want:     small,
			wantCap:  len(small),
		},
		{
			name:     "declared at the presize bound returned whole",
			declared: presize,
			body:     func(*testing.T) io.Reader { return io.LimitReader(zeros{}, presize) },
			want:     make([]byte, presize),
			wantCap:  presize,
		},
		{
			name:       "declared longer than sent",
			declared:   int64(len(small)) + 1,
			body:       func(*testing.T) io.Reader { return bytes.NewReader(small) },
			wantStatus: http.StatusBadRequest,
		},
		{
			name:       "undeclared over Max",
			declared:   -1,
			body:       func(*testing.T) io.Reader { return io.LimitReader(zeros{}, Max+1) },
			wantStatus: http.StatusRequestEntityTooLarge,
		},
		{
			name:     "undeclared small",
			declared: -1,
			body:     func(*testing.T) io.Reader { return strings.NewReader("abc") },
			want:     []byte("abc"),
		},
		{
			name:     "empty",
			declared: 0,
			body:     func(*testing.T) io.Reader { return http.NoBody },
			want:     []byte{},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := httptest.NewRequest(http.MethodPost, "/predict", nil)
			r.Body = io.NopCloser(tc.body(t))
			r.ContentLength = tc.declared
			body, status, err := Read(httptest.NewRecorder(), r)
			if status != tc.wantStatus {
				t.Fatalf("status %d (err %v), want %d", status, err, tc.wantStatus)
			}
			if tc.wantStatus != 0 {
				if err == nil || body != nil {
					t.Fatalf("refused read returned body of %d bytes, err %v", len(body), err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, tc.want) {
				t.Fatalf("body of %d bytes, want %d", len(body), len(tc.want))
			}
			if tc.wantCap > 0 && cap(body) != tc.wantCap {
				t.Errorf("cap(body) = %d, want the declared %d", cap(body), tc.wantCap)
			}
		})
	}
}
