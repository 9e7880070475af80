package ctlog

// Property tests for the proof system the audited crawl trusts. The
// production Tree answers every root and proof from its per-level
// subtree cache in O(log n), so the exhaustive round-trips below prove
// and verify EVERY (index, size) and (old, new) pair up to
// maxPropertySize on it directly (~260k proofs). The cache itself is
// anchored against a naive oracle — the RFC 6962 §2.1 recursions over
// leaf slices, written out as the spec states them — for every root
// up to maxPropertySize and every proof small enough to generate
// naively.

import (
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"testing"
)

const maxPropertySize = 512

// propertyLeaves returns n distinct leaf hashes (leaf i hashes its
// index, so no two leaves — and no two roots — collide).
func propertyLeaves(n int) []Hash {
	leaves := make([]Hash, n)
	for i := range leaves {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(i))
		leaves[i] = LeafHash(b[:])
	}
	return leaves
}

// propertyTree returns a Tree over propertyLeaves(maxPropertySize),
// so every smaller size is a historical prefix of it.
func propertyTree() ([]Hash, *Tree) {
	leaves := propertyLeaves(maxPropertySize)
	tree := &Tree{}
	for _, l := range leaves {
		tree.Append(l)
	}
	return leaves, tree
}

// naiveSplit is RFC 6962's k: the largest power of two smaller than n.
func naiveSplit(n int) int {
	k := 1
	for k*2 < n {
		k *= 2
	}
	return k
}

// naiveRoot is RFC 6962 MTH over leaves, recomputed from scratch.
func naiveRoot(leaves []Hash) Hash {
	switch len(leaves) {
	case 0:
		return sha256.Sum256(nil)
	case 1:
		return leaves[0]
	}
	k := naiveSplit(len(leaves))
	return nodeHash(naiveRoot(leaves[:k]), naiveRoot(leaves[k:]))
}

// naivePath is the RFC 6962 §2.1.1 audit path PATH(i, leaves).
func naivePath(i int, leaves []Hash) []Hash {
	if len(leaves) <= 1 {
		return nil
	}
	k := naiveSplit(len(leaves))
	if i < k {
		return append(naivePath(i, leaves[:k]), naiveRoot(leaves[k:]))
	}
	return append(naivePath(i-k, leaves[k:]), naiveRoot(leaves[:k]))
}

// naiveConsistency is the RFC 6962 §2.1.2 SUBPROOF(m, leaves, complete).
func naiveConsistency(m int, leaves []Hash, complete bool) []Hash {
	n := len(leaves)
	if m == n {
		if complete {
			return nil
		}
		return []Hash{naiveRoot(leaves)}
	}
	k := naiveSplit(n)
	if m <= k {
		return append(naiveConsistency(m, leaves[:k], complete), naiveRoot(leaves[k:]))
	}
	return append(naiveConsistency(m-k, leaves[k:], false), naiveRoot(leaves[:k]))
}

// TestTreeMatchesOracle anchors the cached Tree against the naive
// oracle: identical roots at every historical size, identical proofs
// for every pair small enough to generate naively.
func TestTreeMatchesOracle(t *testing.T) {
	leaves, tree := propertyTree()
	for n := 0; n <= maxPropertySize; n++ {
		got, err := tree.Root(n)
		if err != nil {
			t.Fatal(err)
		}
		if got != naiveRoot(leaves[:n]) {
			t.Fatalf("Tree.Root(%d) diverges from the oracle", n)
		}
	}
	const anchorMax = 64
	for n := 1; n <= anchorMax; n++ {
		for i := 0; i < n; i++ {
			got, err := tree.InclusionProof(i, n)
			if err != nil {
				t.Fatal(err)
			}
			if want := naivePath(i, leaves[:n]); !slices.Equal(got, want) {
				t.Fatalf("InclusionProof(%d,%d) = %d nodes, oracle %d nodes, or a node diverges", i, n, len(got), len(want))
			}
		}
		for m := 1; m <= n; m++ {
			got, err := tree.ConsistencyProof(m, n)
			if err != nil {
				t.Fatal(err)
			}
			if want := naiveConsistency(m, leaves[:n], true); !slices.Equal(got, want) {
				t.Fatalf("ConsistencyProof(%d,%d) = %d nodes, oracle %d nodes, or a node diverges", m, n, len(got), len(want))
			}
		}
	}
}

// TestInclusionRoundTripExhaustive proves and verifies EVERY leaf
// under EVERY tree size up to maxPropertySize.
func TestInclusionRoundTripExhaustive(t *testing.T) {
	leaves, tree := propertyTree()
	for n := 1; n <= maxPropertySize; n++ {
		root, _ := tree.Root(n)
		for i := 0; i < n; i++ {
			proof, err := tree.InclusionProof(i, n)
			if err != nil {
				t.Fatal(err)
			}
			if !VerifyInclusion(leaves[i], i, n, proof, root) {
				t.Fatalf("valid inclusion proof rejected (i=%d, n=%d)", i, n)
			}
		}
	}
}

// TestConsistencyRoundTripExhaustive proves and verifies EVERY
// (old, new) size pair up to maxPropertySize.
func TestConsistencyRoundTripExhaustive(t *testing.T) {
	_, tree := propertyTree()
	for n := 1; n <= maxPropertySize; n++ {
		newRoot, _ := tree.Root(n)
		for m := 1; m <= n; m++ {
			oldRoot, _ := tree.Root(m)
			proof, err := tree.ConsistencyProof(m, n)
			if err != nil {
				t.Fatal(err)
			}
			if !VerifyConsistency(m, n, oldRoot, newRoot, proof) {
				t.Fatalf("valid consistency proof rejected (m=%d, n=%d)", m, n)
			}
		}
	}
}

// mutationSizes samples tree sizes across the interesting shapes:
// powers of two, their neighbours, and ragged mid-range sizes.
var mutationSizes = []int{2, 3, 5, 8, 13, 16, 21, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257, 511, 512}

// mutationIndices samples leaf positions within a tree of size n.
func mutationIndices(n int) []int {
	set := map[int]bool{}
	for _, i := range []int{0, 1, n / 2, n - 2, n - 1} {
		if i >= 0 && i < n {
			set[i] = true
		}
	}
	out := make([]int, 0, len(set))
	for i := range set {
		out = append(out, i)
	}
	return out
}

// inclusionFold replays the verifier's fn/sn walk for a proof of the
// given length at (i, n) and returns the sibling-direction sequence
// plus whether the walk consumes the whole path (sn reaches 0). Two
// (i, n) pairs with identical folds are indistinguishable to
// VerifyInclusion by construction, since the fold is the only way tree
// size enters the computation.
func inclusionFold(i, n, pathLen int) (string, bool) {
	fn, sn := i, n-1
	dirs := make([]byte, 0, pathLen)
	for step := 0; step < pathLen; step++ {
		if sn == 0 {
			return string(dirs), false
		}
		if fn%2 == 1 || fn == sn {
			dirs = append(dirs, 'L')
			if fn%2 == 0 {
				for fn != 0 && fn%2 == 0 {
					fn >>= 1
					sn >>= 1
				}
			}
		} else {
			dirs = append(dirs, 'R')
		}
		fn >>= 1
		sn >>= 1
	}
	return string(dirs), sn == 0
}

// TestInclusionMutationsRejected is the inclusion-proof mutation
// battery: flipping ANY byte of ANY proof node, presenting the proof
// at a wrong index or wrong tree size, truncating or extending the
// path, or swapping the leaf must all reject.
func TestInclusionMutationsRejected(t *testing.T) {
	leaves, tree := propertyTree()
	for _, n := range mutationSizes {
		root, _ := tree.Root(n)
		for _, i := range mutationIndices(n) {
			proof, err := tree.InclusionProof(i, n)
			if err != nil {
				t.Fatal(err)
			}
			for node := range proof {
				for b := 0; b < len(proof[node]); b++ {
					mut := append([]Hash(nil), proof...)
					mut[node][b] ^= 0xff
					if VerifyInclusion(leaves[i], i, n, mut, root) {
						t.Fatalf("proof with node %d byte %d flipped accepted (i=%d, n=%d)", node, b, i, n)
					}
				}
			}
			for _, j := range []int{i - 1, i + 1, 0, n - 1} {
				if j == i || j < 0 || j >= n {
					continue
				}
				if VerifyInclusion(leaves[i], j, n, proof, root) {
					t.Fatalf("proof for index %d accepted at index %d (n=%d)", i, j, n)
				}
			}
			for _, wrongN := range []int{n - 1, n + 1} {
				if wrongN < 1 || i >= wrongN {
					continue
				}
				if fold, ok := inclusionFold(i, n, len(proof)); ok {
					if wrongFold, wrongOK := inclusionFold(i, wrongN, len(proof)); wrongOK && fold == wrongFold {
						// Identical fold pattern: the sizes are
						// indistinguishable to the verifier by
						// construction (e.g. i=0 at sizes 3 and 4,
						// both two right-siblings), so acceptance
						// here is correct, not a defect.
						continue
					}
				}
				if VerifyInclusion(leaves[i], i, wrongN, proof, root) {
					t.Fatalf("proof for size %d accepted at size %d (i=%d)", n, wrongN, i)
				}
			}
			if len(proof) > 0 {
				if VerifyInclusion(leaves[i], i, n, proof[:len(proof)-1], root) {
					t.Fatalf("truncated proof accepted (i=%d, n=%d)", i, n)
				}
			}
			if VerifyInclusion(leaves[i], i, n, append(append([]Hash(nil), proof...), Hash{}), root) {
				t.Fatalf("extended proof accepted (i=%d, n=%d)", i, n)
			}
			other := leaves[(i+1)%n]
			if n > 1 && VerifyInclusion(other, i, n, proof, root) {
				t.Fatalf("proof accepted for the wrong leaf (i=%d, n=%d)", i, n)
			}
		}
	}
}

// TestConsistencyMutationsRejected is the consistency-proof mutation
// battery: byte flips in any node, wrong sizes, wrong roots, and
// truncated or padded paths must all reject.
func TestConsistencyMutationsRejected(t *testing.T) {
	_, tree := propertyTree()
	for _, n := range mutationSizes {
		newRoot, _ := tree.Root(n)
		for _, m := range mutationIndices(n) {
			if m == 0 {
				continue // sizes start at 1
			}
			oldRoot, _ := tree.Root(m)
			proof, err := tree.ConsistencyProof(m, n)
			if err != nil {
				t.Fatal(err)
			}
			for node := range proof {
				for b := 0; b < len(proof[node]); b++ {
					mut := append([]Hash(nil), proof...)
					mut[node][b] ^= 0xff
					if VerifyConsistency(m, n, oldRoot, newRoot, mut) {
						t.Fatalf("consistency with node %d byte %d flipped accepted (m=%d, n=%d)", node, b, m, n)
					}
				}
			}
			if m != n {
				if VerifyConsistency(m, n, newRoot, oldRoot, proof) {
					t.Fatalf("consistency accepted with roots swapped (m=%d, n=%d)", m, n)
				}
			}
			for _, wrongM := range []int{m - 1, m + 1} {
				if wrongM < 1 || wrongM > n || wrongM == m {
					continue
				}
				wrongRoot, _ := tree.Root(wrongM)
				if VerifyConsistency(wrongM, n, wrongRoot, newRoot, proof) {
					t.Fatalf("proof for old size %d accepted at %d (n=%d)", m, wrongM, n)
				}
			}
			var wrongOld Hash
			copy(wrongOld[:], oldRoot[:])
			wrongOld[0] ^= 0xff
			if VerifyConsistency(m, n, wrongOld, newRoot, proof) {
				t.Fatalf("consistency accepted with corrupted old root (m=%d, n=%d)", m, n)
			}
			var wrongNew Hash
			copy(wrongNew[:], newRoot[:])
			wrongNew[0] ^= 0xff
			if VerifyConsistency(m, n, oldRoot, wrongNew, proof) {
				t.Fatalf("consistency accepted with corrupted new root (m=%d, n=%d)", m, n)
			}
			if len(proof) > 0 {
				if VerifyConsistency(m, n, oldRoot, newRoot, proof[:len(proof)-1]) {
					t.Fatalf("truncated consistency accepted (m=%d, n=%d)", m, n)
				}
			}
			if m != n && VerifyConsistency(m, n, oldRoot, newRoot, append(append([]Hash(nil), proof...), Hash{})) {
				t.Fatalf("extended consistency accepted (m=%d, n=%d)", m, n)
			}
		}
	}
}

// TestCompactTreeMatchesTree grows a CompactTree and the leaf-retaining
// Tree in lockstep: identical roots at every size, a right edge that
// persists and reconstructs, and clones that do not alias.
func TestCompactTreeMatchesTree(t *testing.T) {
	leaves := propertyLeaves(maxPropertySize)
	tree := &Tree{}
	ct := &CompactTree{}
	if want := sha256.Sum256(nil); ct.Root() != want {
		t.Fatal("empty compact tree root is not SHA-256 of empty string")
	}
	for n, leaf := range leaves {
		tree.Append(leaf)
		if idx := ct.Append(leaf); idx != n {
			t.Fatalf("Append returned index %d, want %d", idx, n)
		}
		want, err := tree.Root(n + 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := ct.Root(); got != want {
			t.Fatalf("compact root diverges at size %d", n+1)
		}
		// The persisted form reconstructs the same tree.
		rt, err := NewCompactTree(ct.Size(), ct.Hashes())
		if err != nil {
			t.Fatalf("size %d: %v", n+1, err)
		}
		if rt.Root() != want {
			t.Fatalf("reconstructed compact root diverges at size %d", n+1)
		}
	}
}

func TestCompactTreeCloneIndependence(t *testing.T) {
	ct := &CompactTree{}
	leaves := propertyLeaves(8)
	for _, l := range leaves[:5] {
		ct.Append(l)
	}
	rootAt5 := ct.Root()
	clone := ct.Clone()
	for _, l := range leaves[5:] {
		clone.Append(l)
	}
	if ct.Size() != 5 || ct.Root() != rootAt5 {
		t.Fatal("appending to a clone mutated the original")
	}
	if clone.Size() != 8 {
		t.Fatalf("clone size %d, want 8", clone.Size())
	}
	tree := &Tree{}
	for _, l := range leaves {
		tree.Append(l)
	}
	want, _ := tree.Root(8)
	if clone.Root() != want {
		t.Fatal("extended clone root diverges from Tree")
	}
}

func TestNewCompactTreeRejectsBadShapes(t *testing.T) {
	if _, err := NewCompactTree(-1, nil); err == nil {
		t.Error("negative size accepted")
	}
	// popcount(3) == 2, so one hash is one short.
	if _, err := NewCompactTree(3, []Hash{{}}); err == nil {
		t.Error("hash count below popcount accepted")
	}
	if _, err := NewCompactTree(4, []Hash{{}, {}}); err == nil {
		t.Error("hash count above popcount accepted")
	}
	if ct, err := NewCompactTree(0, nil); err != nil || ct.Size() != 0 {
		t.Errorf("empty tree rejected: %v", err)
	}
}
