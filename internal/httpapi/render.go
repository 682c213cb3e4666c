package httpapi

import (
	"bytes"
	"cmp"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"reflect"
	"strconv"
)

// A plan body is appended, not reflected. PlanResponse has one fixed shape,
// so the renderer writes its keys as constants and its ints from a two-digit
// table, byte for byte what encoding/json writes for the same value: a nil
// slice is null, an empty one [], floats follow its 'f'/'e' rule, and the
// strategy, always an assigner's name, needs no escaping. With the plan cache
// and the shared tier off, a /v1/plan 200 streams through the request's decode
// window, idle once the problem is decoded; every other plan-bearing body (a
// cached plan's compact 200, which is also its tier value, /v1/simulate's
// envelope, ?pretty=1) is rendered whole into a buffer a digit-count pass
// sized exactly.

// intRoom is the room the renderer makes before each int: the longest int64
// and the comma before it.
const intRoom = 24

// tailRoom holds a rendered float tail: keys, a brace and two floats of at
// most 25 bytes each.
const tailRoom = 96

// digitPairs is "00" through "99", two bytes each.
const digitPairs = "00010203040506070809101112131415161718192021222324252627282930313233343536373839404142434445464748495051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899"

var (
	jsonContentType = []string{"application/json"}
	newline         = []byte{'\n'}
)

// planWriter appends rendered bytes to b. With a writer, b is a fixed window
// handed to w each time it fills; without one, b was sized for the whole body
// and append grows it only if that size was short.
type planWriter struct {
	b   []byte
	w   io.Writer
	err error // the first Write error; later flushes write nothing
}

// room makes n bytes of the window free, flushing it if they are not.
func (pw *planWriter) room(n int) {
	if pw.w != nil && cap(pw.b)-len(pw.b) < n {
		pw.flush()
	}
}

func (pw *planWriter) flush() {
	if len(pw.b) > 0 && pw.err == nil {
		_, pw.err = pw.w.Write(pw.b)
	}
	pw.b = pw.b[:0]
}

// str and raw append a piece no longer than the window: a key, the strategy
// or the float tail. (A longer one would only grow the window.)
func (pw *planWriter) str(s string) {
	pw.room(len(s))
	pw.b = append(pw.b, s...)
}

func (pw *planWriter) raw(p []byte) {
	pw.room(len(p))
	pw.b = append(pw.b, p...)
}

// ints appends xs as a JSON array, null when nil.
func (pw *planWriter) ints(xs []int) {
	if xs == nil {
		pw.str("null")
		return
	}
	pw.str("[")
	b := pw.b
	for i, x := range xs {
		if cap(b)-len(b) < intRoom && pw.w != nil {
			pw.b = b
			pw.flush()
			b = pw.b
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = appendInt(b, x)
	}
	pw.b = b
	pw.str("]")
}

// plan appends resp, whose rendered float tail is tail.
func (pw *planWriter) plan(resp *PlanResponse, tail []byte) {
	pw.str(`{"strategy":"`)
	pw.str(resp.Strategy)
	pw.str(`","owner":`)
	pw.ints(resp.Owner)
	pw.str(`,"lists":`)
	if resp.Lists == nil {
		pw.str("null")
	} else {
		pw.str("[")
		for i, l := range resp.Lists {
			if i > 0 {
				pw.str(",")
			}
			pw.ints(l)
		}
		pw.str("]")
	}
	pw.raw(tail)
}

// appendInt appends x in decimal: from the pair table below a million, by
// strconv above it and for negatives.
func appendInt(b []byte, x int) []byte {
	switch u := uint(x); {
	case u < 10:
		return append(b, byte('0'+u))
	case u < 100:
		return append(b, digitPairs[2*u], digitPairs[2*u+1])
	case u < 1000:
		lo := u % 100 * 2
		return append(b, byte('0'+u/100), digitPairs[lo], digitPairs[lo+1])
	case u < 10000:
		hi, lo := u/100*2, u%100*2
		return append(b, digitPairs[hi], digitPairs[hi+1], digitPairs[lo], digitPairs[lo+1])
	case u < 100000:
		m := u % 10000
		hi, lo := m/100*2, m%100*2
		return append(b, byte('0'+u/10000), digitPairs[hi], digitPairs[hi+1], digitPairs[lo], digitPairs[lo+1])
	case u < 1000000:
		top, m := u/10000*2, u%10000
		hi, lo := m/100*2, m%100*2
		return append(b, digitPairs[top], digitPairs[top+1], digitPairs[hi], digitPairs[hi+1], digitPairs[lo], digitPairs[lo+1])
	}
	return strconv.AppendInt(b, int64(x), 10)
}

// intLen is the length of appendInt's rendering of x.
func intLen(x int) int {
	switch u := uint(x); {
	case u < 10:
		return 1
	case u < 100:
		return 2
	case u < 1000:
		return 3
	case u < 10000:
		return 4
	case u < 100000:
		return 5
	case u < 1000000:
		return 6
	}
	var scratch [intRoom]byte
	return len(strconv.AppendInt(scratch[:0], int64(x), 10))
}

// intsLen is the length of ints' rendering of xs.
func intsLen(xs []int) int {
	if xs == nil {
		return len("null")
	}
	n := 2 + max(len(xs)-1, 0)
	for _, x := range xs {
		n += intLen(x)
	}
	return n
}

// planLen is the length of plan's rendering of resp with tail.
func planLen(resp *PlanResponse, tail []byte) int {
	n := len(`{"strategy":"","owner":,"lists":`) + len(resp.Strategy) + intsLen(resp.Owner) + len(tail)
	if resp.Lists == nil {
		return n + len("null")
	}
	n += 2 + max(len(resp.Lists)-1, 0)
	for _, l := range resp.Lists {
		n += intsLen(l)
	}
	return n
}

// appendFloat appends f as encoding/json writes a float64: 'f' format, 'e'
// for a non-zero |f| below 1e-6 or from 1e21 on, with a one-digit negative
// exponent unpadded. NaN and ±Inf get the error encoding/json returns.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// appendPlanTail appends what follows a plan's lists: its two floats and the
// closing brace. It runs before anything else is rendered, so a float
// encoding/json refuses fails the body before any byte is written.
func appendPlanTail(b []byte, resp *PlanResponse) ([]byte, error) {
	b = append(b, `,"locality_fraction":`...)
	b, err := appendFloat(b, resp.LocalityFraction)
	if err != nil {
		return nil, err
	}
	b = append(b, `,"planner_ms":`...)
	if b, err = appendFloat(b, resp.PlannerMillis); err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

// renderBody renders head, resp and then rest into one buffer of exactly
// their length.
func renderBody(head string, resp *PlanResponse, rest ...[]byte) ([]byte, error) {
	var tb [tailRoom]byte
	tail, err := appendPlanTail(tb[:0], resp)
	if err != nil {
		return nil, err
	}
	n := len(head) + planLen(resp, tail)
	for _, p := range rest {
		n += len(p)
	}
	pw := planWriter{b: append(make([]byte, 0, n), head...)}
	pw.plan(resp, tail)
	for _, p := range rest {
		pw.b = append(pw.b, p...)
	}
	return pw.b, nil
}

// planBody is the compact /v1/plan body json.Encoder writes for resp: the
// JSON and a newline.
func planBody(resp *PlanResponse) ([]byte, error) {
	return renderBody("", resp, newline)
}

// simulateBody is the /v1/simulate body json.Encoder writes for v. The
// summary is marshalled before anything is written, so a value it refuses
// fails the body with no byte sent.
func simulateBody(r *http.Request, v *SimulateResponse) ([]byte, error) {
	summary, errSummary := json.Marshal(&v.Summary)
	b, err := renderBody(`{"plan":`, &v.Plan, []byte(`,"summary":`), summary, []byte("}\n"))
	// encoding/json reports the first refused float in field order.
	if err = cmp.Or(err, errSummary); err != nil {
		return nil, err
	}
	return prettyIf(r, b), nil
}

// wantsPretty reports whether the request asked for indented output.
func wantsPretty(r *http.Request) bool {
	return r.URL.RawQuery != "" && r.URL.Query().Get("pretty") == "1"
}

// prettyIf indents a compact body under ?pretty=1, as json.Encoder's
// SetIndent("", "  ") does: json.Indent over the compact bytes, trailing
// newline kept.
func prettyIf(r *http.Request, compact []byte) []byte {
	if !wantsPretty(r) {
		return compact
	}
	var out bytes.Buffer
	out.Grow(2 * len(compact))
	_ = json.Indent(&out, compact, "", "  ") // compact is valid JSON
	return out.Bytes()
}

// streamPlan answers 200 with resp rendered through win, the request's idle
// decode window, which goes to w each time it fills: the response costs no
// buffer that grows with it.
func (s *Server) streamPlan(w http.ResponseWriter, r *http.Request, resp *PlanResponse, win []byte) {
	var tb [tailRoom]byte
	tail, err := appendPlanTail(tb[:0], resp)
	if err != nil {
		s.renderFailed(w, r, err)
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	pw := planWriter{b: win[:0], w: w}
	pw.plan(resp, tail)
	pw.raw(newline)
	pw.flush()
	if pw.err != nil {
		s.writeFailed(w, r, http.StatusOK, pw.err)
	}
}

// renderFailed answers a 200 body that could not be rendered, before any of
// it was written, with the JSON error envelope and a 500.
func (s *Server) renderFailed(w http.ResponseWriter, r *http.Request, err error) {
	s.writeFailed(w, r, http.StatusOK, err)
	s.writeError(w, r, http.StatusInternalServerError, err.Error())
}
