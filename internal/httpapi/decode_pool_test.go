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

// The decoder's accumulators ride on the pooled lexer, so one request's
// arrays are the next request's scratch space. These tests hold the two
// things that makes safe: whatever a request left behind — accepted, or
// rejected at any stage — the next one decodes as in a fresh process, and a
// decoded problem keeps nothing the pool can hand out again.

// TestDecodePooledStateHygiene: after each kind of rejection (and after a
// success) the same lexer decodes a valid body to exactly what the reference
// decoder makes of it, and scribbling over everything the lexer retains
// afterwards does not reach the problem.
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
			lx.reset(limited(v))
			req, prob, apiErr := decodeRequest(lx, lim)
			if diff := outcomeOf(req, prob, apiErr).same(want); diff != "" {
				t.Fatalf("valid body after %s: %s", tc.name, diff)
			}
			// What release would put back in the pool, overwritten as the
			// next request would overwrite it.
			lx.reset(nil)
			scribble(lx.acc.taskInputs, -1)
			scribble(lx.acc.sizes, -1)
			scribble(lx.acc.repOff, -1)
			scribble(lx.acc.reps, -1)
			if !bytes.Equal(prob.AppendCanonical(nil), want.canon) {
				t.Fatal("the problem aliases the lexer's accumulators")
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
// shared pool never see each other's rows — every problem still encodes to
// its own reference bytes after the others have come and gone. Under -race an
// aliased array is also a reported write/read race.
func TestDecodeConcurrentNoAlias(t *testing.T) {
	lim := RequestLimits{}.withDefaults()
	decode := func(body []byte, dec func(http.ResponseWriter, *http.Request, RequestLimits) (*PlanRequest, *core.Problem, *apiError)) *core.Problem {
		_, prob, apiErr := dec(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)), lim)
		if apiErr != nil {
			t.Error(apiErr)
			return nil
		}
		return prob
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		// Different shapes, so a swapped or overwritten row cannot go unseen.
		body := benchBody(16+g, 200+50*g, [][]float64{{64}, {30, 20, 10}}[g%2], false, int64(g))
		ref := decode(body, decodeProblemReference)
		if ref == nil {
			t.FailNow()
		}
		want := ref.AppendCanonical(nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held []*core.Problem
			for i := 0; i < 20; i++ {
				prob := decode(body, decodeProblem)
				if prob == nil {
					return
				}
				held = append(held, prob)
				for _, p := range held {
					if !bytes.Equal(p.AppendCanonical(nil), want) {
						t.Error("a decoded problem changed under a concurrent decode")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
