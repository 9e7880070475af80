package asn1der

import "sync"

// arenaSlabSize is the number of Value nodes (and child-pointer cells)
// per slab. A certificate in the paper's corpus decodes to ~130 TLV
// nodes, so one slab covers a typical parse without growth.
const arenaSlabSize = 256

// Arena is a slab allocator for parse trees. A Decoder configured with
// WithArena carves every Value node and child-pointer slice out of the
// arena instead of the heap, so a whole parse costs O(slabs) heap
// allocations instead of O(TLV nodes).
//
// Lifecycle contract: every Value obtained from a parse backed by an
// arena — the root, all descendants, and their Children slices — is
// owned by the arena and becomes invalid at Reset. Callers must copy
// out anything (or simply retain no node pointers) before resetting.
// Raw/Bytes subslices point into the caller's input DER, not into the
// arena, and stay valid as long as that DER does. An Arena is not
// goroutine-safe; use one per worker and recycle via AcquireArena /
// ReleaseArena.
type Arena struct {
	valueSlabs [][]Value
	vSlab      int // index of the slab currently being carved
	vUsed      int // nodes carved from valueSlabs[vSlab]
	ptrSlabs   [][]*Value
	pSlab      int
	pUsed      int
}

// NewArena returns an empty arena. Slabs are allocated on demand and
// retained across Reset, so a recycled arena reaches a steady state
// where parsing allocates nothing.
func NewArena() *Arena { return &Arena{} }

// newValue carves one zeroed Value from the arena.
func (a *Arena) newValue() *Value {
	if a.vSlab >= len(a.valueSlabs) {
		a.valueSlabs = append(a.valueSlabs, make([]Value, arenaSlabSize))
	}
	slab := a.valueSlabs[a.vSlab]
	if a.vUsed == len(slab) {
		a.vSlab++
		a.vUsed = 0
		if a.vSlab == len(a.valueSlabs) {
			a.valueSlabs = append(a.valueSlabs, make([]Value, arenaSlabSize))
		}
		slab = a.valueSlabs[a.vSlab]
	}
	v := &slab[a.vUsed]
	a.vUsed++
	return v
}

// newChildren carves a zero-length child slice with capacity exactly n.
// Appending beyond n falls back to the heap, which keeps miscounted
// callers correct at the price of one allocation.
func (a *Arena) newChildren(n int) []*Value {
	if n == 0 {
		return nil
	}
	if n > arenaSlabSize {
		return make([]*Value, 0, n)
	}
	if a.pSlab >= len(a.ptrSlabs) {
		a.ptrSlabs = append(a.ptrSlabs, make([]*Value, arenaSlabSize))
	}
	slab := a.ptrSlabs[a.pSlab]
	if a.pUsed+n > len(slab) {
		a.pSlab++
		a.pUsed = 0
		if a.pSlab == len(a.ptrSlabs) {
			a.ptrSlabs = append(a.ptrSlabs, make([]*Value, arenaSlabSize))
		}
		slab = a.ptrSlabs[a.pSlab]
	}
	out := slab[a.pUsed : a.pUsed : a.pUsed+n]
	a.pUsed += n
	return out
}

// Reset invalidates every node handed out so far and makes the arena's
// slabs available for reuse. What was carved is zeroed here — this both
// restores the invariant that carved nodes start zero (newValue relies
// on it) and unpins the previous parse's input DER from the garbage
// collector's perspective. Only what was carved: a certificate fills
// about half a slab, and the memory is pointerful, so clearing the rest
// would cost bulk write barriers while the collector marks.
func (a *Arena) Reset() {
	clearCarved(a.valueSlabs, a.vSlab, a.vUsed)
	clearCarved(a.ptrSlabs, a.pSlab, a.pUsed)
	a.vSlab, a.vUsed, a.pSlab, a.pUsed = 0, 0, 0, 0
}

// clearCarved zeroes every slab before cur and the first used cells of
// slab cur; the cells past them were never handed out and are still
// zero.
func clearCarved[T any](slabs [][]T, cur, used int) {
	for i := 0; i < cur && i < len(slabs); i++ {
		clear(slabs[i])
	}
	if cur < len(slabs) {
		clear(slabs[cur][:used])
	}
}

var arenaPool = sync.Pool{New: func() any { return NewArena() }}

// AcquireArena returns a reset arena from the shared pool.
func AcquireArena() *Arena { return arenaPool.Get().(*Arena) }

// ReleaseArena resets the arena and returns it to the pool. The caller
// must not retain any Value parsed through it past this call.
func ReleaseArena(a *Arena) {
	a.Reset()
	arenaPool.Put(a)
}
