// Package ctlog is an RFC 6962-style Certificate Transparency substrate:
// a Merkle hash tree with inclusion and consistency proofs, an
// append-only log that issues SCTs, and the precertificate handling the
// paper's dataset pipeline relies on (§4.1 filters precertificates by
// their CT poison extension before analysis).
package ctlog

import (
	"crypto/sha256"
	"errors"
	"hash"
	"math/bits"
	"slices"
	"sync"
)

// Hash is a Merkle tree node hash.
type Hash = [sha256.Size]byte

// Domain-separation prefixes, RFC 6962 §2.1.
const (
	leafPrefix = 0x00
	nodePrefix = 0x01
)

var leafPrefixBytes = []byte{leafPrefix}

// leafHasher is a reusable SHA-256 state plus the buffer its sum lands
// in, pooled so LeafHash does not allocate.
type leafHasher struct {
	h   hash.Hash
	sum Hash
}

var leafHashers = sync.Pool{New: func() any { return &leafHasher{h: sha256.New()} }}

// LeafHash computes the RFC 6962 leaf hash of data.
func LeafHash(data []byte) Hash {
	lh := leafHashers.Get().(*leafHasher)
	lh.h.Reset()
	lh.h.Write(leafPrefixBytes)
	lh.h.Write(data)
	out := Hash(lh.h.Sum(lh.sum[:0]))
	leafHashers.Put(lh)
	return out
}

func nodeHash(left, right Hash) Hash {
	var buf [1 + 2*sha256.Size]byte
	buf[0] = nodePrefix
	copy(buf[1:], left[:])
	copy(buf[1+sha256.Size:], right[:])
	return sha256.Sum256(buf[:])
}

// Tree is an append-only Merkle tree over leaf hashes that caches the
// root of every complete power-of-two subtree: levels[0] holds the
// leaves and levels[k][j] is the root of leaves [j·2ᵏ, (j+1)·2ᵏ). A
// root or proof at any size n ≤ Size() then costs O(log n) lookups
// plus O(log n) hashes along the ragged right edge of [0, n).
type Tree struct {
	levels [][]Hash
}

// Append adds a leaf hash and returns its index. Each sibling pair it
// completes adds one node one level up, so the cache holds fewer than
// two hashes per leaf.
func (t *Tree) Append(leaf Hash) int {
	for k, h := 0, leaf; ; k++ {
		if k == len(t.levels) {
			t.levels = append(t.levels, nil)
		}
		row := append(t.levels[k], h)
		t.levels[k] = row
		if len(row)%2 == 1 {
			return t.Size() - 1
		}
		h = nodeHash(row[len(row)-2], row[len(row)-1])
	}
}

// Size returns the number of leaves.
func (t *Tree) Size() int {
	if len(t.levels) == 0 {
		return 0
	}
	return len(t.levels[0])
}

// Root computes the Merkle tree hash of the first n leaves (RFC 6962
// §2.1). Root of an empty tree is SHA-256 of the empty string.
func (t *Tree) Root(n int) (Hash, error) {
	if n < 0 || n > t.Size() {
		return Hash{}, errors.New("ctlog: size out of range")
	}
	if n == 0 {
		return sha256.Sum256(nil), nil
	}
	return t.hash(0, n), nil
}

// hash returns the Merkle tree hash of leaves [lo, hi), hi > lo. An
// aligned power-of-two range is one cached node; any other range
// splits as RFC 6962 does, and since lo is then a multiple of the
// split width only the right part recurses.
func (t *Tree) hash(lo, hi int) Hash {
	if w := hi - lo; w&(w-1) == 0 && lo&(w-1) == 0 {
		k := bits.TrailingZeros(uint(w))
		return t.levels[k][lo>>k]
	}
	k := largestPowerOfTwoBelow(hi - lo)
	return nodeHash(t.hash(lo, lo+k), t.hash(lo+k, hi))
}

// largestPowerOfTwoBelow returns the largest power of two < n, n ≥ 2.
func largestPowerOfTwoBelow(n int) int {
	return 1 << (bits.Len(uint(n-1)) - 1)
}

// InclusionProof returns the audit path for leaf index i in a tree of
// size n (RFC 6962 §2.1.1): bottom-up, the sibling of i's ancestor at
// each level, clipped to [0, n). A level whose sibling lies wholly
// beyond n has no node in the RFC 6962 tree and contributes nothing.
func (t *Tree) InclusionProof(i, n int) ([]Hash, error) {
	if n < 1 || n > t.Size() || i < 0 || i >= n {
		return nil, errors.New("ctlog: index/size out of range")
	}
	proof := make([]Hash, 0, bits.Len(uint(n-1)))
	for k := 0; (n-1)>>k > 0; k++ {
		if lo := (i>>k ^ 1) << k; lo < n {
			proof = append(proof, t.hash(lo, min(lo+1<<k, n)))
		}
	}
	return proof, nil
}

// VerifyInclusion checks an audit path against a root, following the
// bottom-up algorithm of RFC 9162 §2.1.3.2.
func VerifyInclusion(leaf Hash, i, n int, proof []Hash, root Hash) bool {
	if i < 0 || i >= n {
		return false
	}
	fn, sn := i, n-1
	r := leaf
	for _, p := range proof {
		if sn == 0 {
			return false
		}
		if fn%2 == 1 || fn == sn {
			r = nodeHash(p, r)
			if fn%2 == 0 {
				for fn != 0 && fn%2 == 0 {
					fn >>= 1
					sn >>= 1
				}
			}
		} else {
			r = nodeHash(r, p)
		}
		fn >>= 1
		sn >>= 1
	}
	return sn == 0 && r == root
}

// ConsistencyProof returns the proof that the tree of size m is a
// prefix of the tree of size n (RFC 6962 §2.1.2). It descends from
// [0, n) towards the range that ends exactly at m, collecting the
// other half at each split, and returns the nodes bottom-up; that
// final range is itself included unless it is the whole old tree.
func (t *Tree) ConsistencyProof(m, n int) ([]Hash, error) {
	if m < 1 || m > n || n > t.Size() {
		return nil, errors.New("ctlog: sizes out of range")
	}
	proof := make([]Hash, 0, bits.Len(uint(n))+1)
	// m counts the old tree's leaves inside [lo, hi).
	lo, hi, complete := 0, n, true
	for m != hi-lo {
		k := largestPowerOfTwoBelow(hi - lo)
		if m <= k {
			proof = append(proof, t.hash(lo+k, hi))
			hi = lo + k
		} else {
			proof = append(proof, t.hash(lo, lo+k))
			lo += k
			m -= k
			complete = false
		}
	}
	if !complete {
		proof = append(proof, t.hash(lo, hi))
	}
	slices.Reverse(proof)
	return proof, nil
}

// VerifyConsistency checks a consistency proof between two roots,
// following RFC 9162 §2.1.4.2.
func VerifyConsistency(m, n int, oldRoot, newRoot Hash, proof []Hash) bool {
	if m < 1 || m > n {
		return false
	}
	if m == n {
		return oldRoot == newRoot && len(proof) == 0
	}
	// If m is an exact power of two, the old root itself starts the
	// path; otherwise the proof's first node does.
	fr, path := oldRoot, proof
	if m&(m-1) != 0 {
		if len(proof) == 0 {
			return false
		}
		fr, path = proof[0], proof[1:]
	}
	fn, sn := m-1, n-1
	for fn%2 == 1 {
		fn >>= 1
		sn >>= 1
	}
	sr := fr
	for _, c := range path {
		if sn == 0 {
			return false
		}
		if fn%2 == 1 || fn == sn {
			fr = nodeHash(c, fr)
			sr = nodeHash(c, sr)
			if fn%2 == 0 {
				for fn != 0 && fn%2 == 0 {
					fn >>= 1
					sn >>= 1
				}
			}
		} else {
			sr = nodeHash(sr, c)
		}
		fn >>= 1
		sn >>= 1
	}
	return sn == 0 && fr == oldRoot && sr == newRoot
}
