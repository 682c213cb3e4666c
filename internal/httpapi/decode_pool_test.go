package httpapi

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"opass/internal/core"
)

// The decoder's accumulators ride on the pooled lexer, and a decoded problem
// borrows them: its tasks, inputs and layout are the lexer's arrays until the
// request releases the lexer, and the next request's scratch space after.
// These tests hold the two things that make that safe: whatever a request
// left behind — accepted, or rejected at any stage — a released arena decodes
// the next body as in a fresh process, and a problem whose arena is still held
// is never touched by another decode.

// TestDecodePooledStateHygiene: after each way out, the lexer is released as
// the pool would take it back and everything it retains is scribbled over,
// and it then decodes a valid body to exactly what the reference decoder
// makes of it.
func TestDecodePooledStateHygiene(t *testing.T) {
	v, ways := waysOut()
	lim := waysOutLimits
	want := outcomeOf(decodeProblemReference(httptest.NewRecorder(),
		httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(v)), lim))
	if want.status != http.StatusOK {
		t.Fatalf("reference rejects the valid body: %v", want.err)
	}
	limited := func(body string) io.Reader {
		return http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(strings.NewReader(body)), lim.BodyBytes)
	}
	for _, tc := range ways {
		t.Run(tc.name, func(t *testing.T) {
			lx := &lexer{buf: make([]byte, windowSize)}
			lx.reset(limited(tc.body))
			if got := outcomeOf(decodeRequest(lx, lim)); got.status != tc.status {
				t.Fatalf("first body: status %d (%v), want %d", got.status, got.err, tc.status)
			}
			// What release puts back in the pool, overwritten as the
			// next request would overwrite it.
			lx.reset(nil)
			scribble(lx.buf, '?')
			scribble(lx.acc.taskInputs, -1)
			scribble(lx.acc.inputs, core.Input{Chunk: -1, SizeMB: -1})
			scribble(lx.acc.repOff, -1)
			scribble(lx.acc.reps, -1)
			scribble(lx.acc.tasks, core.Task{ID: -1})
			lx.reset(limited(v))
			req, prob, apiErr := decodeRequest(lx, lim)
			if diff := outcomeOf(req, prob, apiErr).same(want); diff != "" {
				t.Fatalf("valid body after %s: %s", tc.name, diff)
			}
			if _, err := (core.MultiData{Seed: 1}).Assign(prob); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// scribble overwrites s up to its capacity.
func scribble[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

// TestDecodeConcurrentNoAlias: decoders running side by side through the
// shared pool, each holding a few arenas and releasing the oldest, never
// touch a problem whose arena is held — every held problem still encodes to
// its own reference bytes while the others come and go. Under -race an
// arena handed out twice is also a reported write/read race.
func TestDecodeConcurrentNoAlias(t *testing.T) {
	lim := RequestLimits{}.withDefaults()
	decode := func(body []byte, dec func(http.ResponseWriter, *http.Request, RequestLimits) (*PlanRequest, *core.Problem, *apiError)) (*PlanRequest, *core.Problem) {
		req, prob, apiErr := dec(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)), lim)
		if apiErr != nil {
			t.Error(apiErr)
			return nil, nil
		}
		return req, prob
	}
	type held struct {
		req  *PlanRequest
		prob *core.Problem
	}
	const keep = 3
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		// Different shapes, so a swapped or overwritten row cannot go unseen.
		body := benchBody(16+g, 200+50*g, [][]float64{{64}, {30, 20, 10}}[g%2], false, int64(g))
		_, ref := decode(body, decodeProblemReference)
		if ref == nil {
			t.FailNow()
		}
		want := ref.AppendCanonical(nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var hold []held
			defer func() {
				for _, h := range hold {
					h.req.release()
				}
			}()
			for i := 0; i < 20; i++ {
				req, prob := decode(body, decodeProblem)
				if prob == nil {
					return
				}
				hold = append(hold, held{req, prob})
				for _, h := range hold {
					if !bytes.Equal(h.prob.AppendCanonical(nil), want) {
						t.Error("a held problem changed under a concurrent decode")
						return
					}
				}
				if len(hold) == keep {
					hold[0].req.release()
					hold = hold[1:]
				}
			}
		}()
	}
	wg.Wait()
}
