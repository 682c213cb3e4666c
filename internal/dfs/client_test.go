package dfs

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundTrip(t *testing.T) {
	fs := New(testView(8), Config{Seed: 1, ChunkSizeMB: 1.0 / 1024}) // 1 KiB chunks
	w, err := fs.Client(-1).Create("/roundtrip")
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 5000) // spans 5 chunks
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	if _, err := w.Write(payload[:3000]); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(payload[3000:]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := fs.Client(0).Open("/roundtrip")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip mismatch: %d bytes read", len(got))
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Stat("/roundtrip")
	if len(f.Chunks) != 5 {
		t.Fatalf("chunks = %d, want 5 (4 full + 1 partial)", len(f.Chunks))
	}
}

func TestSyntheticContentDeterministic(t *testing.T) {
	fs := New(testView(8), Config{Seed: 2})
	fs.Create("/synthetic", 2) // 2 MB size-only file
	read := func() []byte {
		r, err := fs.Client(0).Open("/synthetic")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		buf := make([]byte, 4096)
		if _, err := r.ReadAt(buf, 12345); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	a, b := read(), read()
	if !bytes.Equal(a, b) {
		t.Fatal("synthetic content not deterministic")
	}
	// And not trivially constant.
	if bytes.Count(a, []byte{a[0]}) == len(a) {
		t.Fatal("synthetic content is constant")
	}
}

func TestReadPastEOF(t *testing.T) {
	fs := New(testView(8), Config{Seed: 4})
	fs.Create("/f", 1)
	r, _ := fs.Client(0).Open("/f")
	defer r.Close()
	buf := make([]byte, 10)
	if _, err := r.ReadAt(buf, 2*MiB); err != io.EOF {
		t.Fatalf("read past EOF: %v, want io.EOF", err)
	}
}

func TestReaderLocalityAccounting(t *testing.T) {
	fs := New(testView(8), Config{Seed: 5})
	f, _ := fs.Create("/f", 64)
	c := fs.Chunk(f.Chunks[0])
	local := c.Replicas[0]
	r, _ := fs.Client(local).Open("/f")
	defer r.Close()
	buf := make([]byte, 4096)
	r.Read(buf)
	st := r.Stats()
	if st.LocalBytes != 4096 || st.RemoteBytes != 0 {
		t.Fatalf("co-located read stats: %+v", st)
	}
	if st.LocalFraction() != 1 {
		t.Fatalf("local fraction %v", st.LocalFraction())
	}

	remoteReader := -1
	for n := 0; n < 8; n++ {
		if !c.HostedOn(n) {
			remoteReader = n
			break
		}
	}
	r2, _ := fs.Client(remoteReader).Open("/f")
	defer r2.Close()
	r2.Read(buf)
	st2 := r2.Stats()
	if st2.RemoteBytes != 4096 || st2.LocalBytes != 0 {
		t.Fatalf("remote read stats: %+v", st2)
	}
	for node, served := range st2.ServedBytes {
		if !c.HostedOn(node) {
			t.Fatalf("bytes served by non-replica node %d", node)
		}
		if served != 4096 {
			t.Fatalf("served = %d", served)
		}
	}
}

func TestReaderPinsReplicaPerChunk(t *testing.T) {
	fs := New(testView(16), Config{Seed: 6})
	fs.Create("/f", 64)
	r, _ := fs.Client(-1).Open("/f") // external: every chunk remote
	defer r.Close()
	buf := make([]byte, 1024)
	for i := 0; i < 5; i++ {
		r.Read(buf)
		if served := r.Stats().ServedBytes; len(served) != 1 {
			t.Fatalf("one chunk served by %d nodes after read %d: %v", len(served), i, served)
		}
	}
}

func TestWriterErrors(t *testing.T) {
	fs := New(testView(8), Config{Seed: 7})
	fs.Create("/exists", 64)
	if _, err := fs.Client(-1).Create("/exists"); err == nil {
		t.Fatal("create over existing file must fail")
	}
	w, _ := fs.Client(-1).Create("/empty")
	if err := w.Close(); err == nil {
		t.Fatal("closing an empty writer must fail (no chunks)")
	}
	w2, _ := fs.Client(-1).Create("/w2")
	w2.Write([]byte("hi"))
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err == nil {
		t.Fatal("double close must fail")
	}
	if _, err := w2.Write([]byte("more")); err == nil {
		t.Fatal("write after close must fail")
	}
}

func TestReaderErrors(t *testing.T) {
	fs := New(testView(8), Config{Seed: 8})
	if _, err := fs.Client(0).Open("/missing"); err == nil {
		t.Fatal("open missing must fail")
	}
	fs.Create("/f", 1)
	r, _ := fs.Client(0).Open("/f")
	r.Close()
	if _, err := r.Read(make([]byte, 4)); err == nil {
		t.Fatal("read after close must fail")
	}
	if err := r.Close(); err == nil {
		t.Fatal("double close must fail")
	}
	r2, _ := fs.Client(0).Open("/f")
	defer r2.Close()
	if _, err := r2.ReadAt(make([]byte, 4), -1); err == nil {
		t.Fatal("negative offset must fail")
	}
}

func TestClientNodeValidation(t *testing.T) {
	fs := New(testView(4), Config{Seed: 9})
	if c := fs.Client(-1); c.Node() != -1 {
		t.Fatal("external client node")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range node")
		}
	}()
	fs.Client(99)
}

// TestPropertyRoundTripArbitrary fuzzes writer/reader round trips across
// chunk boundaries.
func TestPropertyRoundTripArbitrary(t *testing.T) {
	prop := func(seed int64, raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		fs := New(testView(6), Config{Seed: seed, ChunkSizeMB: 0.5 / 1024}) // 512 B chunks
		w, err := fs.Client(-1).Create("/f")
		if err != nil {
			t.Error(err)
			return false
		}
		if _, err := w.Write(raw); err != nil {
			t.Error(err)
			return false
		}
		if err := w.Close(); err != nil {
			t.Error(err)
			return false
		}
		r, err := fs.Client(0).Open("/f")
		if err != nil {
			t.Error(err)
			return false
		}
		defer r.Close()
		got, err := io.ReadAll(r)
		if err != nil {
			t.Error(err)
			return false
		}
		return bytes.Equal(got, raw)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(30))}); err != nil {
		t.Fatal(err)
	}
}
