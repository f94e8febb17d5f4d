// Package httpbody reads request bodies for the serving tier's HTTP
// handlers — serve's routes and dist's replica router — under the one
// size bound both enforce.
package httpbody

import (
	"errors"
	"fmt"
	"io"
	"net/http"
)

// Max bounds one request body.
const Max = 32 << 20

// presize bounds what is allocated on a client's word alone, before a
// byte of the body has arrived.
const presize = 1 << 20

var errTooLarge = fmt.Errorf("request body larger than %d MiB", Max>>20)

// Read returns r's body. A body of declared Content-Length is refused
// above Max before a byte of it is read, and up to presize read into a
// buffer allocated once at that length; a longer one, or one of unknown
// length, grows with the bytes received, through http.MaxBytesReader. On
// failure, status is what to answer: 413 for a body over Max, 400 for a
// read that failed.
//
// The buffer is not pooled: it belongs to the caller, who may retain it
// (a serve.Codec is free to).
func Read(w http.ResponseWriter, r *http.Request) (body []byte, status int, err error) {
	if r.ContentLength > Max {
		return nil, http.StatusRequestEntityTooLarge, errTooLarge
	}
	if 0 < r.ContentLength && r.ContentLength <= presize {
		body = make([]byte, r.ContentLength)
		_, err = io.ReadFull(r.Body, body)
	} else {
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, Max))
	}
	if err == nil {
		return body, 0, nil
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return nil, http.StatusRequestEntityTooLarge, errTooLarge
	}
	return nil, http.StatusBadRequest, fmt.Errorf("read body: %w", err)
}
