package plancache

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"opass/internal/plancache/plancachetest"
)

// tierConformance drives any Tier through the contract the httpapi layer
// relies on: set-then-get round-trips bytes exactly, absent keys miss
// cleanly, and namespaced keys are disjoint.
func tierConformance(t *testing.T, tier Tier) {
	t.Helper()
	ctx := context.Background()
	k1 := TierKey("opass1", KeyOf([]byte("problem-a")))
	k2 := TierKey("opass2", KeyOf([]byte("problem-a"))) // same fingerprint, other version

	if _, ok, err := tier.Get(ctx, k1); err != nil || ok {
		t.Fatalf("Get on empty tier = ok=%v err=%v, want clean miss", ok, err)
	}
	val := bytes.Repeat([]byte("plan-bytes\x00\xff"), 1000) // binary-safe, multi-KB
	if err := tier.Set(ctx, k1, val, time.Minute); err != nil {
		t.Fatalf("Set: %v", err)
	}
	got, ok, err := tier.Get(ctx, k1)
	if err != nil || !ok {
		t.Fatalf("Get after Set = ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, val) {
		t.Fatalf("round-trip corrupted value: %d bytes, want %d", len(got), len(val))
	}
	if _, ok, err := tier.Get(ctx, k2); err != nil || ok {
		t.Fatalf("other-version key hit (ok=%v err=%v); namespaces must be disjoint", ok, err)
	}
	// Empty value round-trips too (a legal cached payload).
	if err := tier.Set(ctx, k2, nil, 0); err != nil {
		t.Fatalf("Set empty: %v", err)
	}
	if got, ok, _ := tier.Get(ctx, k2); !ok || len(got) != 0 {
		t.Fatalf("empty value round-trip = %q ok=%v", got, ok)
	}
}

func TestRemoteTierConformance(t *testing.T) {
	srv, err := plancachetest.NewMemcachedServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	r := NewRemote(srv.Addr(), RemoteOptions{})
	defer r.Close()
	tierConformance(t, r)
}

// TestRemoteTierTTLExpiry asserts a TTL'd entry vanishes after its
// exptime (driven through the server's test clock).
func TestRemoteTierTTLExpiry(t *testing.T) {
	srv, err := plancachetest.NewMemcachedServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := time.Now()
	now := base
	var mu sync.Mutex
	srv.SetClock(func() time.Time { mu.Lock(); defer mu.Unlock(); return now })

	r := NewRemote(srv.Addr(), RemoteOptions{})
	defer r.Close()
	ctx := context.Background()
	if err := r.Set(ctx, "ttl-key", []byte("v"), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := r.Get(ctx, "ttl-key"); err != nil || !ok {
		t.Fatalf("fresh entry missing (ok=%v err=%v)", ok, err)
	}
	mu.Lock()
	now = base.Add(time.Minute)
	mu.Unlock()
	if _, ok, err := r.Get(ctx, "ttl-key"); err != nil || ok {
		t.Fatalf("expired entry still served (ok=%v err=%v)", ok, err)
	}
	if srv.Len() != 0 {
		t.Fatalf("server retains %d items after expiry read", srv.Len())
	}
}

// TestRemoteTierConnReuse asserts sequential exchanges share pooled
// connections instead of redialing.
func TestRemoteTierConnReuse(t *testing.T) {
	srv, err := plancachetest.NewMemcachedServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dials := 0
	r := NewRemote(srv.Addr(), RemoteOptions{Dial: func(ctx context.Context) (net.Conn, error) {
		dials++
		var d net.Dialer
		return d.DialContext(ctx, "tcp", srv.Addr())
	}})
	defer r.Close()
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := r.Set(ctx, key, []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := r.Get(ctx, key); err != nil || !ok {
			t.Fatalf("get %s: ok=%v err=%v", key, ok, err)
		}
	}
	if dials != 1 {
		t.Fatalf("%d dials for 20 sequential exchanges, want 1", dials)
	}
}

// TestRemoteTierErrorPaths: a dead server surfaces errors (treated as
// misses upstream); invalid keys are rejected before any network traffic.
func TestRemoteTierErrorPaths(t *testing.T) {
	srv, err := plancachetest.NewMemcachedServer()
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	srv.Close()

	r := NewRemote(addr, RemoteOptions{Timeout: 100 * time.Millisecond})
	defer r.Close()
	ctx := context.Background()
	if _, ok, err := r.Get(ctx, "k"); err == nil || ok {
		t.Fatalf("Get against dead server = ok=%v err=%v, want error", ok, err)
	}
	if err := r.Set(ctx, "k", []byte("v"), 0); err == nil {
		t.Fatal("Set against dead server succeeded")
	}
	if err := r.Set(ctx, "bad key", []byte("v"), 0); err == nil {
		t.Fatal("whitespace key accepted")
	}
	if err := r.Set(ctx, strings.Repeat("k", 251), []byte("v"), 0); err == nil {
		t.Fatal("overlong key accepted")
	}
	if _, ok, err := r.Get(ctx, "bad\nkey"); err == nil || ok {
		t.Fatalf("Get with a control-character key = ok=%v err=%v, want error", ok, err)
	}
}

// TestRemoteTierConcurrent hammers one server from many goroutines — the
// fleet-of-replicas shape — verifying every value round-trips intact.
// Meaningful mainly under -race.
func TestRemoteTierConcurrent(t *testing.T) {
	srv, err := plancachetest.NewMemcachedServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	r := NewRemote(srv.Addr(), RemoteOptions{})
	defer r.Close()

	const workers = 8
	const rounds = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("w%d-r%d", w, i)
				val := bytes.Repeat([]byte{byte(w), byte(i)}, 512)
				if err := r.Set(ctx, key, val, 0); err != nil {
					errs <- err
					return
				}
				got, ok, err := r.Get(ctx, key)
				if err != nil || !ok || !bytes.Equal(got, val) {
					errs <- fmt.Errorf("round-trip %s: ok=%v err=%v", key, ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if srv.Len() != workers*rounds {
		t.Fatalf("server holds %d items, want %d", srv.Len(), workers*rounds)
	}
}

// FuzzMemcachedReply answers Get and Set with arbitrary reply bytes over an
// in-memory pipe. Whatever the peer says, the client must not panic or
// allocate what the peer merely claims (the two seeds announce 8 EiB and
// 1 TiB values and send none of it), and an exchange that failed must not
// return its connection to the pool: the next call dials afresh.
func FuzzMemcachedReply(f *testing.F) {
	f.Add([]byte("VALUE k 0 9223372036854775807\r\n"))
	f.Add([]byte("VALUE k 0 1099511627776\r\n"))
	f.Add([]byte("VALUE k 0 2\r\nab\r\nEND\r\n"))
	f.Add([]byte("END\r\nSTORED\r\n"))
	f.Add([]byte("VALUE k 0 1\r\nxyz"))
	f.Fuzz(func(t *testing.T, reply []byte) {
		// Each dialed peer swallows the request and writes reply once. Both of
		// its goroutines end when either side closes, which r.Close (pooled
		// connections) or a failed exchange guarantees.
		var peers sync.WaitGroup
		dials := 0
		r := NewRemote("pipe", RemoteOptions{Timeout: time.Second, Dial: func(context.Context) (net.Conn, error) {
			dials++
			client, server := net.Pipe()
			peers.Add(2)
			go func() {
				defer peers.Done()
				_, _ = io.Copy(io.Discard, server)
			}()
			go func() {
				defer peers.Done()
				_, _ = server.Write(reply) // fails once the client hangs up
				server.Close()
			}()
			return client, nil
		}})
		defer peers.Wait()
		defer r.Close()
		ctx := context.Background()
		ops := []func() error{
			func() error { _, _, err := r.Get(ctx, "k"); return err },
			func() error { return r.Set(ctx, "k", []byte("v"), 0) },
			func() error { _, _, err := r.Get(ctx, "k"); return err },
		}
		failed := true // the first call has nothing pooled
		for i, op := range ops {
			before := dials
			err := op()
			if redialed := dials > before; redialed != failed {
				t.Fatalf("call %d dialed=%v after a previous call that failed=%v", i, redialed, failed)
			}
			failed = err != nil
		}
	})
}
