// Package memo is the content-addressed trial-result cache: deterministic
// simulations make a trial's outcome a pure function of its inputs, so a
// stable fingerprint over those inputs (compiled scenario cell, resolved
// scheduler parameters, seed, engine selection, telemetry config) addresses
// the result. The cache is an in-process concurrent map from fingerprint to
// the result value itself; it lives only as long as the process, so a hit
// is always a result the running binary computed (see DESIGN §13).
//
// Keys are produced with a Hasher whose writes are tagged and
// length-framed: two field sequences that differ anywhere — even by where
// one string ends and the next begins — produce different keys. Callers
// seed the Hasher with a salt that separates unrelated key spaces.
package memo

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
)

// Key is a content-addressed fingerprint. The zero Key means "uncacheable"
// everywhere a Key is consumed.
type Key [sha256.Size]byte

// IsZero reports whether k is the zero (uncacheable) key.
func (k Key) IsZero() bool { return k == Key{} }

// Field tags, one per Hasher write kind. Tagging prevents cross-kind
// collisions (the string "1" and the int 1 hash differently).
const (
	tagString = 0x01
	tagBytes  = 0x02
	tagInt    = 0x03
	tagFloat  = 0x04
	tagBool   = 0x05
	tagKey    = 0x06
)

// Hasher accumulates tagged, length-framed fields into a Key. It is not
// safe for concurrent use; build one per fingerprint.
type Hasher struct {
	h   hash.Hash
	buf [10]byte
}

// NewHasher starts a fingerprint salted with a key-space name. The
// salt participates in the hash like any other field, so changing it
// changes every key derived from it.
func NewHasher(salt string) *Hasher {
	h := &Hasher{h: sha256.New()}
	h.Str(salt)
	return h
}

// frame writes the field tag and payload length, the framing that keeps
// adjacent fields from bleeding into each other.
func (h *Hasher) frame(tag byte, n int) {
	h.buf[0] = tag
	binary.LittleEndian.PutUint64(h.buf[1:9], uint64(n))
	h.h.Write(h.buf[:9])
}

// Str folds a string field into the fingerprint.
func (h *Hasher) Str(s string) *Hasher {
	h.frame(tagString, len(s))
	h.h.Write([]byte(s))
	return h
}

// Bytes folds a raw byte field (e.g. canonical JSON) into the fingerprint.
func (h *Hasher) Bytes(b []byte) *Hasher {
	h.frame(tagBytes, len(b))
	h.h.Write(b)
	return h
}

// Int folds a signed integer field into the fingerprint.
func (h *Hasher) Int(v int64) *Hasher {
	h.frame(tagInt, 8)
	binary.LittleEndian.PutUint64(h.buf[:8], uint64(v))
	h.h.Write(h.buf[:8])
	return h
}

// Float folds a float64 field into the fingerprint by exact bit pattern,
// so any representable change — however small — changes the key.
func (h *Hasher) Float(v float64) *Hasher {
	h.frame(tagFloat, 8)
	binary.LittleEndian.PutUint64(h.buf[:8], math.Float64bits(v))
	h.h.Write(h.buf[:8])
	return h
}

// Bool folds a boolean field into the fingerprint.
func (h *Hasher) Bool(v bool) *Hasher {
	b := byte(0)
	if v {
		b = 1
	}
	h.frame(tagBool, 1)
	h.h.Write([]byte{b})
	return h
}

// Key folds an existing key into the fingerprint — how a precomputed
// grid-invariant prefix combines with per-cell fields.
func (h *Hasher) Key(k Key) *Hasher {
	h.frame(tagKey, len(k))
	h.h.Write(k[:])
	return h
}

// Sum finishes the fingerprint. The Hasher must not be reused after.
func (h *Hasher) Sum() Key {
	var k Key
	h.h.Sum(k[:0])
	return k
}

// Derive folds extra integer fields into an existing key — the trial
// runner's way of finalizing a scenario-computed prefix with the resolved
// per-trial seed without re-hashing the whole spec.
func Derive(k Key, extras ...int64) Key {
	h := NewHasher("memo-derive")
	h.Key(k)
	for _, v := range extras {
		h.Int(v)
	}
	return h.Sum()
}
