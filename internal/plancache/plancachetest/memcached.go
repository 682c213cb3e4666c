// Package plancachetest holds test support for the shared plan-cache tier:
// an in-process memcached-protocol server, kept out of package plancache so
// it is not linked into opassd.
package plancachetest

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// MemcachedServer is a minimal in-process server speaking the subset of
// the memcached text protocol plancache.Remote uses (get/set, plus
// delete/flush_all/version for operational tests). It exists so the
// shared-tier path can be exercised end to end — unit tests, the -race CI
// job, and local multi-replica experiments — without a memcached binary in
// the environment. It is NOT a production cache: storage is an unbounded
// map with TTL-on-read expiry only.
type MemcachedServer struct {
	ln net.Listener
	wg sync.WaitGroup

	mu     sync.Mutex
	items  map[string]mcItem
	closed bool

	now func() time.Time // see SetClock
}

type mcItem struct {
	flags   string
	value   []byte
	expires time.Time // zero means never
}

// NewMemcachedServer starts a server on a fresh loopback port. Close it
// when done.
func NewMemcachedServer() (*MemcachedServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &MemcachedServer{ln: ln, items: make(map[string]mcItem), now: time.Now}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// SetClock overrides the clock item expiry runs on. Call it before the
// first request.
func (s *MemcachedServer) SetClock(now func() time.Time) { s.now = now }

// Addr returns the host:port the server listens on.
func (s *MemcachedServer) Addr() string { return s.ln.Addr().String() }

// Len reports the live (unexpired) item count.
func (s *MemcachedServer) Len() int {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, it := range s.items {
		if it.expires.IsZero() || now.Before(it.expires) {
			n++
		}
	}
	return n
}

// Close stops accepting and shuts down; established connections are closed
// by their handlers on the next read.
func (s *MemcachedServer) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.ln.Close()
	s.wg.Wait()
}

func (s *MemcachedServer) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serve(c)
		}()
	}
}

func (s *MemcachedServer) serve(c net.Conn) {
	defer c.Close()
	br := bufio.NewReader(c)
	bw := bufio.NewWriter(c)
	for {
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return
		}
		line, err := br.ReadString('\n')
		if err != nil {
			return
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			fmt.Fprintf(bw, "ERROR\r\n")
			bw.Flush()
			continue
		}
		switch fields[0] {
		case "get", "gets":
			s.handleGet(bw, fields[1:])
		case "set":
			if err := s.handleSet(br, bw, fields[1:]); err != nil {
				return
			}
		case "delete":
			s.handleDelete(bw, fields[1:])
		case "flush_all":
			s.mu.Lock()
			s.items = make(map[string]mcItem)
			s.mu.Unlock()
			fmt.Fprintf(bw, "OK\r\n")
		case "version":
			fmt.Fprintf(bw, "VERSION 0.0-opass\r\n")
		case "quit":
			bw.Flush()
			return
		default:
			fmt.Fprintf(bw, "ERROR\r\n")
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

func (s *MemcachedServer) handleGet(bw *bufio.Writer, keys []string) {
	now := s.now()
	for _, key := range keys {
		s.mu.Lock()
		it, ok := s.items[key]
		if ok && !it.expires.IsZero() && !now.Before(it.expires) {
			delete(s.items, key)
			ok = false
		}
		s.mu.Unlock()
		if !ok {
			continue
		}
		fmt.Fprintf(bw, "VALUE %s %s %d\r\n", key, it.flags, len(it.value))
		bw.Write(it.value)
		bw.WriteString("\r\n")
	}
	fmt.Fprintf(bw, "END\r\n")
}

// handleSet consumes the data block even on a malformed header, keeping
// the stream in sync; an unrecoverable framing problem returns an error
// and drops the connection, as real memcached does.
func (s *MemcachedServer) handleSet(br *bufio.Reader, bw *bufio.Writer, args []string) error {
	if len(args) < 4 {
		fmt.Fprintf(bw, "CLIENT_ERROR bad command line format\r\n")
		return nil
	}
	key, flags := args[0], args[1]
	exptime, err1 := strconv.Atoi(args[2])
	size, err2 := strconv.Atoi(args[3])
	if err1 != nil || err2 != nil || size < 0 || len(key) > 250 {
		fmt.Fprintf(bw, "CLIENT_ERROR bad command line format\r\n")
		return fmt.Errorf("malformed set header")
	}
	buf := make([]byte, size+2)
	if _, err := io.ReadFull(br, buf); err != nil {
		return err
	}
	if buf[size] != '\r' || buf[size+1] != '\n' {
		fmt.Fprintf(bw, "CLIENT_ERROR bad data chunk\r\n")
		return fmt.Errorf("bad data chunk terminator")
	}
	var expires time.Time
	if exptime > 0 {
		if exptime > 30*24*3600 {
			expires = time.Unix(int64(exptime), 0)
		} else {
			expires = s.now().Add(time.Duration(exptime) * time.Second)
		}
	}
	s.mu.Lock()
	s.items[key] = mcItem{flags: flags, value: buf[:size:size], expires: expires}
	s.mu.Unlock()
	fmt.Fprintf(bw, "STORED\r\n")
	return nil
}

func (s *MemcachedServer) handleDelete(bw *bufio.Writer, args []string) {
	if len(args) < 1 {
		fmt.Fprintf(bw, "CLIENT_ERROR bad command line format\r\n")
		return
	}
	s.mu.Lock()
	_, ok := s.items[args[0]]
	delete(s.items, args[0])
	s.mu.Unlock()
	if ok {
		fmt.Fprintf(bw, "DELETED\r\n")
	} else {
		fmt.Fprintf(bw, "NOT_FOUND\r\n")
	}
}
