package index

import (
	"bytes"
	"sort"
	"sync"
	"sync/atomic"
)

// BTree is the in-memory B+tree test oracle and T1–T5 baseline:
// data only in linked leaves (so range scans are a leaf walk), order
// btreeOrder internal fan-out. It answers the exact same Index
// interface and routes through the same evalLookup as the LSM, which
// is what makes it usable as a differential-testing oracle — the fuzz
// harness asserts LSM and B+tree lookups are identical posting for
// posting. It does not persist: Flush and Compact are no-ops, and the
// T1–T5 grid documents it as the memory-resident comparison point.
type BTree struct {
	mu   sync.RWMutex
	root *btNode
	seq  atomic.Uint64

	certs          uint64
	postings       uint64
	encBuf, keyBuf []byte
}

const btreeOrder = 64 // max keys per node; splits at overflow

// btNode is either an internal node (children set, vals nil) or a leaf
// (vals set, next linking the leaf chain).
type btNode struct {
	keys     [][]byte
	vals     [][]byte
	children []*btNode
	next     *btNode
}

func (n *btNode) leaf() bool { return n.children == nil }

// NewBTree returns an empty baseline index.
func NewBTree() *BTree {
	return &BTree{root: &btNode{}}
}

// Put implements Index.
func (t *BTree) Put(rec Record) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec.Seq = t.seq.Add(1)
	t.encBuf = appendRecord(t.encBuf[:0], &rec)
	val := append([]byte(nil), t.encBuf...)
	var err error
	t.keyBuf, err = postings(&rec, t.keyBuf, func(key []byte) {
		t.insert(append([]byte(nil), key...), val)
		t.postings++
	})
	if err != nil {
		return err
	}
	t.certs++
	return nil
}

func (t *BTree) insert(key, val []byte) {
	midKey, sib := t.root.insert(key, val)
	if sib != nil {
		t.root = &btNode{keys: [][]byte{midKey}, children: []*btNode{t.root, sib}}
	}
}

// insert descends to the leaf for key; on overflow the node splits and
// returns the separator key plus the new right sibling for the parent
// to absorb.
func (n *btNode) insert(key, val []byte) ([]byte, *btNode) {
	if n.leaf() {
		i := sort.Search(len(n.keys), func(i int) bool { return bytes.Compare(n.keys[i], key) >= 0 })
		n.keys = append(n.keys, nil)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.vals = append(n.vals, nil)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = val
		if len(n.keys) <= btreeOrder {
			return nil, nil
		}
		// Leaf split: right half moves to the sibling, which enters the
		// leaf chain; the separator is the sibling's first key (B+tree
		// style — data stays in leaves).
		mid := len(n.keys) / 2
		sib := &btNode{
			keys: append([][]byte(nil), n.keys[mid:]...),
			vals: append([][]byte(nil), n.vals[mid:]...),
			next: n.next,
		}
		n.keys = n.keys[:mid:mid]
		n.vals = n.vals[:mid:mid]
		n.next = sib
		return sib.keys[0], sib
	}
	// Internal: child i covers keys < keys[i]... descend right of the
	// last separator ≤ key.
	i := sort.Search(len(n.keys), func(i int) bool { return bytes.Compare(n.keys[i], key) > 0 })
	midKey, sib := n.children[i].insert(key, val)
	if sib == nil {
		return nil, nil
	}
	n.keys = append(n.keys, nil)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = midKey
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = sib
	if len(n.keys) <= btreeOrder {
		return nil, nil
	}
	// Internal split: the middle separator moves UP, not right.
	mid := len(n.keys) / 2
	up := n.keys[mid]
	right := &btNode{
		keys:     append([][]byte(nil), n.keys[mid+1:]...),
		children: append([]*btNode(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return up, right
}

// scanFrom finds the leaf and position of the first key >= lo.
func (t *BTree) scanFrom(lo []byte) (*btNode, int) {
	n := t.root
	for !n.leaf() {
		i := sort.Search(len(n.keys), func(i int) bool { return bytes.Compare(n.keys[i], lo) > 0 })
		n = n.children[i]
	}
	i := sort.Search(len(n.keys), func(i int) bool { return bytes.Compare(n.keys[i], lo) >= 0 })
	return n, i
}

// scan implements store: an in-order leaf-chain walk.
func (t *BTree) scan(lo, hi []byte, fn func(key, val []byte) bool) error {
	n, i := t.scanFrom(lo)
	for n != nil {
		for ; i < len(n.keys); i++ {
			if hi != nil && bytes.Compare(n.keys[i], hi) >= 0 {
				return nil
			}
			if !fn(n.keys[i], n.vals[i]) {
				return nil
			}
		}
		n, i = n.next, 0
	}
	return nil
}

// scanExact implements store (no blooms to consult in a tree).
func (t *BTree) scanExact(prefix []byte, fn func(key, val []byte) bool) error {
	return t.scan(prefix, upperBound(prefix), fn)
}

// Lookup implements Index.
func (t *BTree) Lookup(q Query) ([]Record, error) { return t.LookupAppend(q, nil) }

// LookupAppend implements Index.
func (t *BTree) LookupAppend(q Query, dst []Record) ([]Record, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return evalLookup(t, q, dst)
}

// Flush implements Index (no-op: the baseline does not persist).
func (t *BTree) Flush() error { return nil }

// Compact implements Index (no-op).
func (t *BTree) Compact() error { return nil }

// Stats implements Index.
func (t *BTree) Stats() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return Stats{Backend: "btree", Certs: t.certs, Postings: t.postings}
}

// Close implements Index (no-op).
func (t *BTree) Close() error { return nil }
