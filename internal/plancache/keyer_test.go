package plancache

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"os"
	"os/exec"
	"sync"
	"testing"
)

// keyerFraming checks what any Keyer must give: one key for one message, and
// another key when bytes move between sections, a trailing empty section is
// added, or the domain changes.
func keyerFraming(t *testing.T, k *Keyer) {
	t.Helper()
	b := func(s string) []byte { return []byte(s) }
	if k.KeyOf(DomainAlias, b("body"), b("q")) != k.KeyOf(DomainAlias, b("body"), b("q")) {
		t.Fatal("one message, two keys")
	}
	distinct := []Key{
		// a body under its query, as handlePlan frames them
		k.KeyOf(DomainAlias, b("{}"), b("pretty=1")),
		k.KeyOf(DomainAlias, b("}"), b("pretty=1{")),
		k.KeyOf(DomainAlias, b("1{}"), b("pretty=")),
		k.KeyOf(DomainAlias, b("pretty=1{}")),
		k.KeyOf(DomainAlias, b("pretty=1{}"), nil),
		k.KeyOf(DomainAlias, nil, b("pretty=1{}")),
		k.KeyOf(DomainFingerprint, b("{}"), b("pretty=1")),
		// canonical bytes under strategy and seed, as Server.plan frames them
		k.KeyOf(DomainFingerprint, b("canon"), b("opass"), b("\x07\x00")),
		k.KeyOf(DomainFingerprint, b("canon"), b("opass\x07"), b("\x00")),
		k.KeyOf(DomainFingerprint, b("anon"), b("opass"), b("\x07\x00c")),
		k.KeyOf(DomainFingerprint, b("canon"), b("opas"), b("s\x07\x00")),
	}
	seen := map[Key]int{}
	for i, key := range distinct {
		if j, ok := seen[key]; ok {
			t.Fatalf("messages %d and %d share a key", j, i)
		}
		seen[key] = i
	}
}

func TestKeyerFraming(t *testing.T) {
	keyerFraming(t, NewKeyer())
}

// TestKeyerFallback: without GCM (FIPS 140-only mode) a Keyer's key is KeyOf
// over the framed header and the tail, and frames as well.
func TestKeyerFallback(t *testing.T) {
	k := newKeyer(nil)
	keyerFraming(t, k)
	header := []byte{DomainAlias, 1, 0, 0, 0, 0, 0, 0, 0, 'q', 4, 0, 0, 0, 0, 0, 0, 0}
	if got, want := k.KeyOf(DomainAlias, []byte("body"), []byte("q")), KeyOf(header, []byte("body")); got != want {
		t.Fatalf("fallback key %x, want KeyOf's %x", got, want)
	}
}

// TestKeyersAreIndependent: each Keyer draws its own key, so one body gets
// different keys from two of them and the same key twice from one.
func TestKeyersAreIndependent(t *testing.T) {
	a, b := NewKeyer(), NewKeyer()
	body := []byte(`{"nodes":4}`)
	if a.KeyOf(DomainAlias, body) == b.KeyOf(DomainAlias, body) {
		t.Fatal("two keyers agree on a key")
	}
	if a.KeyOf(DomainAlias, body) == newKeyer(nil).KeyOf(DomainAlias, body) {
		t.Fatal("a keyed key equals the unkeyed one")
	}
}

// TestKeyerAllocatesNothing: a warm key costs no allocation, whatever the
// size of its last section.
func TestKeyerAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race")
	}
	k := NewKeyer()
	body := make([]byte, 128<<10)
	if n := testing.AllocsPerRun(100, func() { k.KeyOf(DomainAlias, body, []byte("pretty=1")) }); n != 0 {
		t.Fatalf("KeyOf allocated %v times per call, want 0", n)
	}
}

// TestNewKeyerUnderFIPSOnly re-runs the test binary with GODEBUG=fips140=only,
// where cipher.NewGCM refuses the fixed nonce, and checks there that NewKeyer
// falls back to KeyOf.
func TestNewKeyerUnderFIPSOnly(t *testing.T) {
	if os.Getenv("OPASS_KEYER_FIPS_CHILD") == "1" {
		blk, err := aes.NewCipher(make([]byte, 32))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cipher.NewGCM(blk); err == nil {
			t.Skip("this toolchain has no FIPS 140-only mode")
		}
		k := NewKeyer()
		if k.gcm != nil {
			t.Fatal("NewKeyer kept GCM in FIPS 140-only mode")
		}
		if k.KeyOf(DomainFingerprint, []byte("x")) != newKeyer(nil).KeyOf(DomainFingerprint, []byte("x")) {
			t.Fatal("FIPS 140-only key is not KeyOf's")
		}
		return
	}
	if testing.Short() {
		t.Skip("starts a child test process")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=^TestNewKeyerUnderFIPSOnly$", "-test.v")
	cmd.Env = append(os.Environ(), "OPASS_KEYER_FIPS_CHILD=1", "GODEBUG=fips140=only")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
}

// TestKeyerConcurrent: goroutines sharing one Keyer — and its buffer pool —
// get the keys a lone caller gets.
func TestKeyerConcurrent(t *testing.T) {
	k := NewKeyer()
	bodies := make([][]byte, 8)
	want := make([]Key, len(bodies))
	for i := range bodies {
		bodies[i] = bytes.Repeat([]byte{byte(i)}, 1000+i*100)
		want[i] = k.KeyOf(DomainAlias, bodies[i], []byte("q"))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				i := (g + n) % len(bodies)
				if got := k.KeyOf(DomainAlias, bodies[i], []byte("q")); got != want[i] {
					t.Errorf("goroutine %d: body %d keyed %x, want %x", g, i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
