package httpapi

import (
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
)

// A /v1/plan body is aliased to its finished response: with the plan cache
// on, the handler reads the body ahead into a pooled buffer, and a body whose
// bytes (under the same query) already produced a 200 is answered with that
// response's stored bytes — no admission, no decode, no fingerprint, no
// encode: the one pass over the body is its alias key, a GMAC
// (plancache.Keyer) at memory speed. Anything else is decoded from the buffer
// as if it had streamed in.

// maxAliasBody caps the bodies that are read ahead and aliased, about six
// times fleet-bulk's 1.3 MB body. A longer body streams through the decoder's
// window as it does with the cache off, so memory at fleet scale stays the
// decoder's, not a copy of the body.
const maxAliasBody = 8 << 20

// bodyBuf is a request body read ahead into a pooled buffer. As an io.Reader
// it replays the buffered bytes and then the rest of the body: nothing when
// the read ended cleanly, the remainder of a body longer than maxAliasBody,
// or the error that cut the read short (MaxBytesReader keeps returning it).
// So the decoder reads exactly the stream it would have read from the body.
type bodyBuf struct {
	b    []byte
	off  int
	rest io.Reader // the body under its MaxBytesReader
	eof  bool      // b holds the whole body
}

var bodyPool = sync.Pool{New: func() any { return new(bodyBuf) }}

// bodiesOut counts body buffers taken from the pool and not yet returned.
var bodiesOut atomic.Int64

// readBody reads r's body, under the body limit, into a pooled buffer sized
// from Content-Length, stopping at maxAliasBody bytes. The caller must
// release it.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) *bodyBuf {
	bb := bodyPool.Get().(*bodyBuf)
	bodiesOut.Add(1)
	bb.rest = http.MaxBytesReader(w, r.Body, limit)
	b := bb.b[:0]
	if r.ContentLength >= 0 {
		// One byte past the declared length, so the read ends on EOF rather
		// than on a full buffer.
		b = slices.Grow(b, int(min(r.ContentLength, maxAliasBody))+1)
	}
	for len(b) < maxAliasBody {
		if len(b) == cap(b) { // length unknown, or the body is longer than declared
			b = slices.Grow(b, 512)
		}
		n, err := bb.rest.Read(b[len(b):min(cap(b), maxAliasBody)])
		b = b[:len(b)+n]
		if err != nil {
			bb.eof = err == io.EOF
			break
		}
	}
	bb.b = b
	return bb
}

func (bb *bodyBuf) Read(p []byte) (int, error) {
	if bb.off < len(bb.b) {
		n := copy(p, bb.b[bb.off:])
		bb.off += n
		return n, nil
	}
	return bb.rest.Read(p)
}

// Close is a no-op: the server closes the request body itself.
func (bb *bodyBuf) Close() error { return nil }

// release returns the buffer to the pool. Neither the bytes nor the reader
// may be used afterwards.
func (bb *bodyBuf) release() {
	*bb = bodyBuf{b: bb.b[:0]}
	bodiesOut.Add(-1)
	bodyPool.Put(bb)
}
