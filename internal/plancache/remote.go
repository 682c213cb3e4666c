package plancache

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Remote is a Tier backed by any server speaking the memcached text
// protocol (memcached itself, twemproxy/mcrouter fleets, or the in-process
// MemcachedServer used in tests and CI). Only two verbs are used — get and
// set — which every protocol-compatible proxy supports.
//
// Connections are pooled: a request takes an idle connection or dials a
// new one, and returns it after a clean exchange. Any network or protocol
// error closes the connection (the stream state is unknowable) and surfaces
// the error to the caller, who treats it as a miss — a flaky or absent
// remote tier degrades opassd to single-replica caching, never to wrong
// answers or unavailability.
type Remote struct {
	addr    string
	dial    func(ctx context.Context) (net.Conn, error)
	timeout time.Duration

	mu     sync.Mutex
	idle   []*remoteConn
	closed bool
}

// RemoteOptions configures a Remote tier.
type RemoteOptions struct {
	// Timeout bounds each network exchange (dial, write, read). <= 0 means
	// DefaultRemoteTimeout. The per-call ctx deadline, when earlier, wins.
	Timeout time.Duration
	// Dial overrides the dialer for tests; nil dials TCP to the address.
	Dial func(ctx context.Context) (net.Conn, error)
}

// DefaultRemoteTimeout bounds remote-tier exchanges when no timeout is
// configured: long enough for a multi-MB plan body on a LAN, short enough
// that a dead memcached never stalls a planning request noticeably.
const DefaultRemoteTimeout = 250 * time.Millisecond

// remoteMaxIdle bounds the pooled idle connections.
const remoteMaxIdle = 4

type remoteConn struct {
	c net.Conn
	r *bufio.Reader
	w *bufio.Writer
}

// NewRemote creates a memcached-protocol Tier client for addr
// (host:port).
func NewRemote(addr string, opts RemoteOptions) *Remote {
	r := &Remote{
		addr:    addr,
		timeout: opts.Timeout,
		dial:    opts.Dial,
	}
	if r.timeout <= 0 {
		r.timeout = DefaultRemoteTimeout
	}
	if r.dial == nil {
		r.dial = func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	return r
}

// Close drops all pooled connections. In-flight exchanges finish on their
// own connections; subsequent calls dial fresh.
func (r *Remote) Close() {
	r.mu.Lock()
	idle := r.idle
	r.idle = nil
	r.closed = true
	r.mu.Unlock()
	for _, rc := range idle {
		rc.c.Close()
	}
}

// validKey enforces the memcached key rules: 1..250 bytes, no whitespace
// or control characters. TierKey output always passes.
func validKey(key string) error {
	if len(key) == 0 || len(key) > 250 {
		return fmt.Errorf("plancache: remote key length %d outside [1,250]", len(key))
	}
	for i := 0; i < len(key); i++ {
		if key[i] <= ' ' || key[i] == 0x7f {
			return fmt.Errorf("plancache: remote key contains byte %#x at %d", key[i], i)
		}
	}
	return nil
}

// Get implements Tier with the memcached "get" verb.
func (r *Remote) Get(ctx context.Context, key string) ([]byte, bool, error) {
	if err := validKey(key); err != nil {
		return nil, false, err
	}
	var value []byte
	var found bool
	err := r.exchange(ctx, func(rc *remoteConn) error {
		if _, err := fmt.Fprintf(rc.w, "get %s\r\n", key); err != nil {
			return err
		}
		if err := rc.w.Flush(); err != nil {
			return err
		}
		for {
			line, err := readLine(rc.r)
			if err != nil {
				return err
			}
			switch {
			case line == "END":
				return nil
			case strings.HasPrefix(line, "VALUE "):
				fields := strings.Fields(line)
				if len(fields) != 4 || fields[1] != key {
					return fmt.Errorf("plancache: malformed VALUE line %q", line)
				}
				// The size is the peer's claim: the buffer grows only as
				// bytes arrive, under the exchange deadline, so a lying
				// peer costs what it actually sends.
				size, err := strconv.ParseInt(fields[3], 10, 64)
				if err != nil || size < 0 || size > math.MaxInt64-2 {
					return fmt.Errorf("plancache: malformed VALUE size in %q", line)
				}
				var buf bytes.Buffer
				if _, err := io.CopyN(&buf, rc.r, size+2); err != nil { // trailing \r\n
					return err
				}
				body := buf.Bytes()
				if body[size] != '\r' || body[size+1] != '\n' {
					return fmt.Errorf("plancache: VALUE body missing terminator")
				}
				value, found = body[:size:size], true
			default:
				return fmt.Errorf("plancache: unexpected response %q to get", line)
			}
		}
	})
	if err != nil {
		return nil, false, err
	}
	return value, found, nil
}

// Set implements Tier with the memcached "set" verb.
func (r *Remote) Set(ctx context.Context, key string, value []byte, ttl time.Duration) error {
	if err := validKey(key); err != nil {
		return err
	}
	exptime := 0
	if ttl > 0 {
		exptime = int(ttl / time.Second)
		if exptime < 1 {
			exptime = 1
		}
		// Relative expirations above 30 days are interpreted by memcached
		// as absolute unix timestamps; clamp below the threshold.
		if exptime >= 30*24*3600 {
			exptime = 30*24*3600 - 1
		}
	}
	return r.exchange(ctx, func(rc *remoteConn) error {
		if _, err := fmt.Fprintf(rc.w, "set %s 0 %d %d\r\n", key, exptime, len(value)); err != nil {
			return err
		}
		if _, err := rc.w.Write(value); err != nil {
			return err
		}
		if _, err := rc.w.WriteString("\r\n"); err != nil {
			return err
		}
		if err := rc.w.Flush(); err != nil {
			return err
		}
		line, err := readLine(rc.r)
		if err != nil {
			return err
		}
		if line != "STORED" {
			return fmt.Errorf("plancache: set not stored: %q", line)
		}
		return nil
	})
}

// exchange runs one request/response round on a pooled connection under
// the configured deadline, recycling the connection on success and closing
// it on any failure.
func (r *Remote) exchange(ctx context.Context, fn func(*remoteConn) error) error {
	rc, err := r.acquire(ctx)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(r.timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := rc.c.SetDeadline(deadline); err != nil {
		rc.c.Close()
		return err
	}
	if err := fn(rc); err != nil {
		rc.c.Close()
		return err
	}
	r.release(rc)
	return nil
}

func (r *Remote) acquire(ctx context.Context) (*remoteConn, error) {
	r.mu.Lock()
	if n := len(r.idle); n > 0 {
		rc := r.idle[n-1]
		r.idle = r.idle[:n-1]
		r.mu.Unlock()
		return rc, nil
	}
	r.mu.Unlock()
	dctx, cancel := context.WithTimeout(ctx, r.timeout)
	defer cancel()
	c, err := r.dial(dctx)
	if err != nil {
		return nil, err
	}
	return &remoteConn{c: c, r: bufio.NewReader(c), w: bufio.NewWriter(c)}, nil
}

func (r *Remote) release(rc *remoteConn) {
	r.mu.Lock()
	if !r.closed && len(r.idle) < remoteMaxIdle {
		r.idle = append(r.idle, rc)
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	rc.c.Close()
}

// readLine reads one CRLF-terminated protocol line (without the CRLF).
func readLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return "", err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return "", fmt.Errorf("plancache: protocol line missing CRLF: %q", line)
	}
	return line[:len(line)-2], nil
}
