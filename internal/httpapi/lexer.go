package httpapi

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"

	"opass/internal/core"
	"opass/internal/dfs"
)

// windowSize is the lexer's fixed read window. No token of a well-formed
// request comes near it (the longest is a 22-byte key), so a token that
// fills it is hostile and is rejected rather than grown into.
const windowSize = 64 << 10

var errTokenTooLong = errors.New("token longer than the decoder's window")

// lexer is a single-pass scanner for the request grammar: objects with a
// known key set, arrays, integers, floats, booleans, unescaped ASCII
// strings and null. It reads through a fixed window, so memory does not
// depend on the body, and it fails once: after the first error every method
// is a no-op returning zero values, and the loops built on elem and member
// end. Callers check err when they are done.
type lexer struct {
	r        io.Reader
	buf      []byte // the window; unread input is buf[pos:end]
	pos, end int
	rerr     error  // why reading stopped: io.EOF, a transport or a body-limit error
	err      error  // first failure of any kind
	name     string // set by member: the field whose value is at the cursor

	// acc is where decodeRequest gathers the submitted layout. It rides on
	// the lexer so the grown arrays are pooled with the window, under the one
	// release discipline.
	acc layoutAcc
	// canon holds the decoded problem's canonical encoding while the plan
	// cache keys it (PlanRequest.canonical); pooled the same way.
	canon []byte
	// world is the simulated cluster and mirror file system a /v1/simulate
	// request rebuilds in place (PlanRequest.world); nil until the lexer
	// first serves one.
	world *world
}

// layoutAcc accumulates a request's layout as it streams in, task-major:
// compact columns instead of a materialized []TaskSpec. It is also the
// decoded problem's storage: the problem's tasks, inputs and core.Layout are
// these arrays, so the problem is valid only while its request holds the
// lexer.
type layoutAcc struct {
	taskInputs []int32      // inputs per task, in task order
	inputs     []core.Input // input i is chunk i, in task order
	repOff     []int        // input i's replicas are reps[repOff[i]:repOff[i+1]]
	reps       []int
	tasks      []core.Task // carved over inputs once the scan is done
}

// reset empties the accumulator, keeping its storage.
func (a *layoutAcc) reset() {
	*a = layoutAcc{a.taskInputs[:0], a.inputs[:0], append(a.repOff[:0], 0), a.reps[:0], a.tasks[:0]}
}

var lexerPool = sync.Pool{New: func() any { return &lexer{buf: make([]byte, windowSize)} }}

// lexersOut counts lexers taken from the pool and not yet returned.
var lexersOut atomic.Int64

func newLexer(r io.Reader) *lexer {
	lx := lexerPool.Get().(*lexer)
	lexersOut.Add(1)
	lx.r = r
	return lx
}

// reset readies the lexer for another body, keeping only its window, its
// accumulator storage, its canonical-encoding buffer and its world.
func (lx *lexer) reset(r io.Reader) {
	*lx = lexer{r: r, buf: lx.buf, acc: lx.acc, canon: lx.canon[:0], world: lx.world}
}

// release returns the lexer, its window and its accumulator storage to the
// pool. Nothing the lexer handed out (str, number) or accumulated may be used
// afterwards, the problem decoded into it included: the next request
// overwrites both.
func (lx *lexer) release() {
	lx.reset(nil)
	lexersOut.Add(-1)
	lexerPool.Put(lx)
}

// fail records the first error and empties the window, which is what makes
// every later call see no input.
func (lx *lexer) fail(err error) {
	if lx.err == nil {
		lx.err = err
		lx.pos = lx.end
	}
}

// fill slides the unread bytes to the front of the window and reads more
// input behind them, reporting whether any arrived. Slices into the window
// taken before a fill are stale after it.
func (lx *lexer) fill() bool {
	if lx.err != nil || lx.rerr != nil {
		return false
	}
	if lx.pos > 0 {
		lx.end = copy(lx.buf, lx.buf[lx.pos:lx.end])
		lx.pos = 0
	}
	if lx.end == len(lx.buf) {
		lx.fail(errTokenTooLong)
		return false
	}
	for {
		n, err := lx.r.Read(lx.buf[lx.end:])
		lx.end += n
		lx.rerr = err
		if n > 0 || err != nil {
			return n > 0
		}
	}
}

// short records that the input stopped inside a value: the read error when
// there was one (so a body over the limit stays a 413), else unexpected EOF.
func (lx *lexer) short() {
	if lx.rerr != nil && lx.rerr != io.EOF {
		lx.fail(lx.rerr)
	} else {
		lx.fail(io.ErrUnexpectedEOF)
	}
}

// unexpected records that the byte at the cursor, or the end of the input,
// is not what the grammar wants there.
func (lx *lexer) unexpected(want string) {
	if lx.pos < lx.end {
		lx.fail(fmt.Errorf("invalid character %q, want %s", lx.buf[lx.pos], want))
	} else {
		lx.short()
	}
}

// peek skips whitespace and returns the next byte without consuming it, or
// 0 when there is none.
func (lx *lexer) peek() byte {
	if lx.pos < lx.end && lx.buf[lx.pos] > ' ' {
		return lx.buf[lx.pos]
	}
	return lx.skip()
}

func (lx *lexer) skip() byte {
	for lx.err == nil {
		for ; lx.pos < lx.end; lx.pos++ {
			if c := lx.buf[lx.pos]; !space[c] {
				return c
			}
		}
		if !lx.fill() {
			break
		}
	}
	return 0
}

// space marks the bytes JSON counts as whitespace.
var space = [256]bool{' ': true, '\n': true, '\t': true, '\r': true}

// finish checks that only whitespace follows and that the input ended
// cleanly rather than on a read error.
func (lx *lexer) finish() {
	if lx.peek() != 0 || lx.pos < lx.end {
		lx.fail(fmt.Errorf("invalid character %q after the request object", lx.buf[lx.pos]))
	} else if lx.rerr != io.EOF {
		lx.short()
	}
}

// elem steps through an array. Called before each element with the number
// already consumed, it takes the opening '[' or the separating ',' and
// reports whether an element follows; when none does it takes the ']'.
func (lx *lexer) elem(i int) bool {
	c := lx.peek()
	if i == 0 {
		if c != '[' {
			lx.unexpected("an array")
			return false
		}
		lx.pos++
		if lx.peek() == ']' {
			lx.pos++
			return false
		}
		return true
	}
	switch c {
	case ',':
		lx.pos++
		return true
	case ']':
		lx.pos++
		return false
	}
	lx.unexpected("',' or ']'")
	return false
}

// member steps through an object the way elem steps through an array,
// leaving the cursor on a value and that field's name in lx.name. Keys must
// equal one of names byte for byte and appear at most once: *seen, zero
// before the first call, has bit 0 set once the '{' is taken and bit i+1
// once names[i] has appeared. A null value means "absent" for every field,
// as it does to encoding/json, and is skipped here.
func (lx *lexer) member(names []string, seen *uint) bool {
	for {
		c := lx.peek()
		if *seen == 0 {
			if c != '{' {
				lx.unexpected("an object")
				return false
			}
			*seen = 1
			lx.pos++
			if lx.peek() == '}' {
				lx.pos++
				return false
			}
		} else if c == '}' {
			lx.pos++
			return false
		} else if c == ',' {
			lx.pos++
		} else {
			lx.unexpected("',' or '}'")
			return false
		}
		i := lx.knownKey(names)
		if i < 0 {
			key := lx.str() // aliases the window: matched before the next peek can refill it
			for i = 0; i < len(names) && string(key) != names[i]; i++ {
			}
			if lx.err != nil {
				return false
			} else if i == len(names) {
				lx.fail(fmt.Errorf("unknown field %.40q", key))
				return false
			}
		}
		if *seen&(2<<i) != 0 {
			lx.fail(fmt.Errorf("duplicate field %q", names[i]))
			return false
		}
		*seen |= 2 << i
		if lx.peek() != ':' {
			lx.unexpected("':'")
			return false
		}
		lx.pos++
		if lx.peek() != 'n' {
			lx.name = names[i]
			return true
		}
		lx.literal("null")
	}
}

// knownKey is member's fast path: when the window holds a quoted key equal
// to one of names, closing quote included, it consumes the key and returns
// its index. Otherwise it consumes nothing and returns -1, and the key is
// left to str, which refills and reports every kind of bad key.
func (lx *lexer) knownKey(names []string) int {
	if lx.peek() != '"' {
		return -1
	}
	b := lx.buf[lx.pos+1 : lx.end]
	for i, name := range names {
		if len(b) > len(name) && b[len(name)] == '"' && string(b[:len(name)]) == name {
			lx.pos += len(name) + 2
			return i
		}
	}
	return -1
}

// literal consumes word, whose first byte the caller saw at the cursor.
func (lx *lexer) literal(word string) {
	for lx.end-lx.pos < len(word) {
		if !lx.fill() {
			lx.short()
			return
		}
	}
	if string(lx.buf[lx.pos:lx.pos+len(word)]) != word {
		lx.unexpected(word)
		return
	}
	lx.pos += len(word)
}

func (lx *lexer) bool() bool {
	switch lx.peek() {
	case 't':
		lx.literal("true")
		return true
	case 'f':
		lx.literal("false")
		return false
	}
	lx.unexpected("true or false")
	return false
}

// str consumes a string and returns its bytes, which alias the window and
// are valid until the next lexer call. No request field needs more than
// printable ASCII, so escapes and bytes outside it are errors, and a key
// can be compared without unescaping.
func (lx *lexer) str() []byte {
	if lx.peek() != '"' {
		lx.unexpected("a string")
		return nil
	}
	for i := 1; ; i++ { // offset from pos, which fill moves
		if lx.pos+i == lx.end && !lx.fill() {
			lx.short()
			return nil
		}
		if c := lx.buf[lx.pos+i]; c == '"' {
			s := lx.buf[lx.pos+1 : lx.pos+i]
			lx.pos += i + 1
			return s
		} else if c < ' ' || c == '\\' || c >= 0x80 {
			lx.fail(errors.New("strings must be printable ASCII without escapes"))
			return nil
		}
	}
}

// number consumes a JSON number and returns its text (valid until the next
// lexer call) and whether it is written as an integer, with no fraction or
// exponent.
func (lx *lexer) number() (tok []byte, integer bool) {
	lx.peek()
	n := 0
	for {
		if lx.pos+n == lx.end && !lx.fill() {
			lx.short() // no request ends on a number
			return nil, false
		}
		if !numberByte[lx.buf[lx.pos+n]] {
			break
		}
		n++
	}
	if n == 0 {
		lx.unexpected("a number")
		return nil, false
	}
	tok = lx.buf[lx.pos : lx.pos+n]
	lx.pos += n
	// -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
	i := 0
	if tok[0] == '-' {
		i = 1
	}
	j := digits(tok, i)
	ok := j > i && (tok[i] != '0' || j == i+1)
	integer = j == n
	if ok && j < n && tok[j] == '.' {
		i = j + 1
		j = digits(tok, i)
		ok = j > i
	}
	if ok && j < n && (tok[j] == 'e' || tok[j] == 'E') {
		i = j + 1
		if i < n && (tok[i] == '+' || tok[i] == '-') {
			i++
		}
		j = digits(tok, i)
		ok = j > i
	}
	if !ok || j != n {
		lx.fail(fmt.Errorf("malformed number %.40q", tok))
		return nil, false
	}
	return tok, integer
}

// numberByte marks the bytes a JSON number is made of.
var numberByte = [256]bool{'0': true, '1': true, '2': true, '3': true, '4': true, '5': true, '6': true,
	'7': true, '8': true, '9': true, '-': true, '+': true, '.': true, 'e': true, 'E': true}

// digits returns the index after the run of digits that starts at tok[i].
func digits(tok []byte, i int) int {
	for i < len(tok) && tok[i] >= '0' && tok[i] <= '9' {
		i++
	}
	return i
}

// small converts an integer literal of at most 18 bytes, too short to
// overflow.
func small(tok []byte) int64 {
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	var v int64
	for _, c := range tok {
		v = v*10 + int64(c-'0')
	}
	if neg {
		return -v
	}
	return v
}

// leadingUint is the one-pass scan behind the integer fast paths: the value
// and length of the unsigned integer literal at the front of b, or length 0
// unless b starts with 1 to max digits, without a leading zero, followed in
// b by a byte that cannot continue a number. On 0 the caller takes number,
// which refills, parses signs, fractions and exponents, and words the errors.
func leadingUint(b []byte, max int) (v int64, n int) {
	if len(b) > max {
		b = b[:max+1] // a run that reaches the end is too long or unfinished
	}
	for n < len(b) {
		c := b[n] - '0'
		if c > 9 {
			break
		}
		v = v*10 + int64(c)
		n++
	}
	if n == 0 || n == len(b) || numberByte[b[n]] || b[0] == '0' && n > 1 {
		return 0, 0
	}
	return v, n
}

// uint consumes the integer at the cursor when leadingUint takes it, and
// reports whether it did.
func (lx *lexer) uint(max int) (int64, bool) {
	lx.peek()
	v, n := leadingUint(lx.buf[lx.pos:lx.end], max)
	lx.pos += n
	return v, n > 0
}

func (lx *lexer) int64() int64 {
	if v, ok := lx.uint(18); ok {
		return v
	}
	tok, integer := lx.number()
	switch {
	case lx.err != nil:
		return 0
	case !integer:
		lx.fail(fmt.Errorf("number %.40s is not an integer", tok))
		return 0
	case len(tok) <= 18:
		return small(tok)
	}
	v, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		lx.fail(err)
	}
	return v
}

func (lx *lexer) int() int {
	v := lx.int64()
	if int64(int(v)) != v {
		lx.fail(fmt.Errorf("number %d overflows int", v))
	}
	return int(v)
}

// float converts exactly as encoding/json does (strconv.ParseFloat), with a
// shortcut for the unsigned integer literals sizes are written as: below
// 10^15 they are exact in a float64. uint takes them in one pass; the token
// check below still catches one a refill cut.
func (lx *lexer) float() float64 {
	if v, ok := lx.uint(15); ok {
		return float64(v)
	}
	tok, integer := lx.number()
	switch {
	case lx.err != nil:
		return 0
	case integer && tok[0] != '-' && len(tok) <= 15:
		return float64(small(tok))
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		lx.fail(err)
	}
	return v
}

// ints appends an array of integers to dst. A compact array of unsigned
// literals that lies whole in the window ("[3,0,7]") is taken by compactInts;
// at anything else (whitespace, a sign, an empty array, a refill) elem and
// int take the array from its '[', appending to dst as it was passed in.
func (lx *lexer) ints(dst []int) []int {
	if lx.peek() == '[' {
		if out, n := compactInts(dst, lx.buf[lx.pos+1:lx.end]); n > 0 {
			lx.pos += n + 1
			return out
		}
	}
	for i := 0; lx.elem(i); i++ {
		dst = append(dst, lx.int())
	}
	return dst
}

// compactInts is the one-loop scan of a compact array of unsigned integer
// literals: b follows the '[', and on success it returns dst with the values
// appended and the bytes taken through the ']'. It returns n == 0 at the
// first byte of any other shape, an empty array, a value that overflows int
// (which may be 32 bits) or the end of b.
func compactInts(dst []int, b []byte) (out []int, n int) {
	for i := 0; ; i++ {
		v, k := leadingUint(b[i:], 18)
		if k == 0 || int64(int(v)) != v {
			return dst, 0
		}
		dst = append(dst, int(v))
		if i += k; b[i] == ']' { // leadingUint leaves a byte behind the literal
			return dst, i + 1
		} else if b[i] != ',' {
			return dst, 0
		}
	}
}

// compactTask is the tasks loop's fast path. When the window holds a whole
// task in the shape encoding/json writes a TaskSpec in, with no whitespace —
// {"inputs":[{"size_mb":N,"replicas":[a,b,…]},…]} — and every size a nonzero
// unsigned integer literal of at most 15 digits, every replica array
// non-empty and at most maxInputs inputs, it appends the task to the
// accumulator, consumes it and returns true. At the first byte that differs
// it returns false having consumed and accumulated nothing: the general path
// then takes the task and reports whatever is wrong with it.
func (lx *lexer) compactTask(maxInputs int) bool {
	// The keys are compared as constants (a helper taking them as arguments
	// compiles to a memequal call per key).
	const open, size, replicas = `{"inputs":[`, `{"size_mb":`, `,"replicas":[`
	b := lx.buf[lx.pos:lx.end]
	if len(b) < len(open) || string(b[:len(open)]) != open {
		return false
	}
	// The task grows copies of the accumulator's slice headers, stored back
	// only once it is whole.
	inputs, repOff, reps := lx.acc.inputs, lx.acc.repOff, lx.acc.reps
	for i, ii := len(open), 1; ii <= maxInputs; ii++ {
		if len(b) < i+len(size) || string(b[i:i+len(size)]) != size {
			return false
		}
		v, n := leadingUint(b[i+len(size):], 15)
		if i += len(size) + n; n == 0 || v == 0 || len(b) < i+len(replicas) || string(b[i:i+len(replicas)]) != replicas {
			return false
		}
		if reps, n = compactInts(reps, b[i+len(replicas):]); n == 0 {
			return false
		}
		// The input's '}' and at least two bytes after it: ',' and the next
		// input's first, or the task's "]}".
		if i += len(replicas) + n; i+2 >= len(b) || b[i] != '}' {
			return false
		}
		inputs = append(inputs, core.Input{Chunk: dfs.ChunkID(len(inputs)), SizeMB: float64(v)})
		repOff = append(repOff, len(reps))
		switch {
		case b[i+1] == ',':
			i += 2
		case b[i+1] == ']' && b[i+2] == '}':
			lx.acc.inputs, lx.acc.repOff, lx.acc.reps = inputs, repOff, reps
			lx.acc.taskInputs = append(lx.acc.taskInputs, int32(ii))
			lx.pos += i + 3
			return true
		default:
			return false
		}
	}
	return false
}
