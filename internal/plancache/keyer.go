package plancache

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"
)

// Domains keep a Keyer's key families apart: the domain byte leads every
// framed message, so a key of one domain never equals a key of another.
const (
	DomainAlias       byte = 'a' // a request body under its query
	DomainFingerprint byte = 'f' // a canonical problem under its strategy and seed
)

// Keyer derives cache keys that never leave the process: an AES-GMAC under a
// key drawn from crypto/rand when the Keyer is made, over the same
// length-framed sections KeyOf hashes. A key stays unforgeable only while it
// is secret; KeyOf's SHA-256 remains the one key that may be shown or shared
// (the remote tier's, via TierKey).
//
// Security: GHASH is almost-XOR-universal, so two distinct framed messages of
// at most ℓ 16-byte blocks, chosen without knowledge of the key, get the same
// tag with probability at most (ℓ+1)/2^128; a client therefore cannot make its
// body's key equal another body's or another problem's. The bound holds only
// while no key or tag is ever shown outside the process — not in logs,
// metrics, headers, error bodies or the shared tier — and that is also why one
// fixed nonce is safe: GCM's nonce-reuse attacks need to see tags.
//
// Under GODEBUG=fips140=only, cipher.NewGCM refuses caller-chosen nonces; a
// Keyer made there falls back to KeyOf over the same framing.
type Keyer struct {
	gcm  cipher.AEAD // nil: the KeyOf fallback
	bufs sync.Pool   // *keyBuf
}

// keyBuf is the header and tag storage of one KeyOf call. Arguments to an
// interface method escape, so it comes from a pool rather than the stack.
type keyBuf struct {
	hdr []byte
	tag [16]byte
}

// gmacNonce is the one nonce every tag is sealed under.
var gmacNonce [12]byte

// NewKeyer returns a Keyer under a fresh random key.
func NewKeyer() *Keyer {
	var secret [32]byte
	if _, err := rand.Read(secret[:]); err != nil {
		panic(fmt.Sprintf("plancache: crypto/rand: %v", err)) // crypto/rand does not fail on supported platforms
	}
	blk, err := aes.NewCipher(secret[:])
	if err != nil {
		panic(err) // a 32-byte key is always valid
	}
	gcm, err := cipher.NewGCM(blk)
	if err != nil { // FIPS 140-only mode
		gcm = nil
	}
	return newKeyer(gcm)
}

// newKeyer wraps gcm, or the KeyOf fallback when gcm is nil.
func newKeyer(gcm cipher.AEAD) *Keyer {
	return &Keyer{gcm: gcm, bufs: sync.Pool{New: func() any { return new(keyBuf) }}}
}

// KeyOf is the keyed counterpart of the package's KeyOf: it frames the
// domain byte, then each head section prefixed by its length, then the
// length of tail. The Key is two tags: one over that header and one over tail
// alone, which is never copied. So a collision needs equal headers — equal
// lengths and equal head sections — and equal tails, or a tag collision. In
// the fallback the Key is KeyOf(header, tail).
func (k *Keyer) KeyOf(domain byte, tail []byte, head ...[]byte) Key {
	s := k.bufs.Get().(*keyBuf)
	hdr := append(s.hdr[:0], domain)
	for _, sec := range head {
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(sec)))
		hdr = append(hdr, sec...)
	}
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(tail)))
	var key Key
	if k.gcm == nil {
		key = KeyOf(hdr, tail)
	} else {
		k.gcm.Seal(s.tag[:0], gmacNonce[:], nil, hdr)
		copy(key[:16], s.tag[:])
		k.gcm.Seal(s.tag[:0], gmacNonce[:], nil, tail)
		copy(key[16:], s.tag[:])
	}
	s.hdr = hdr
	k.bufs.Put(s)
	return key
}
