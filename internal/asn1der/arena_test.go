package asn1der

import (
	"reflect"
	"testing"
)

// TestArenaResetClearsCarved dirties every node and child cell an arena
// hands out, resets it, and checks that a second, larger carving hands
// out only zeroed memory: Reset clears what was carved, however the
// carving ended within or across slabs.
func TestArenaResetClearsCarved(t *testing.T) {
	der := []byte{0x05, 0x00}
	dirty := &Value{Tag: Tag{Number: TagNull}, Raw: der}
	for _, tc := range []struct {
		name     string
		values   int
		children []int // child-run lengths, carved in order
	}{
		{"k=1", 1, []int{1}},
		{"k=255", 255, []int{255}},
		{"k=256", 256, []int{256}},
		{"k=257", 257, []int{256, 1}},
		// 200 then 100 cells: the second run skips slab 0's 56-cell tail.
		{"skipped tail", 130, []int{200, 100}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := NewArena()
			for i := 0; i < tc.values; i++ {
				v := a.newValue()
				*v = Value{Tag: Tag{Number: TagSequence, Constructed: true}, Bytes: der, Raw: der, Children: []*Value{dirty}}
			}
			for _, n := range tc.children {
				c := a.newChildren(n)
				for len(c) < n {
					c = append(c, dirty)
				}
			}
			a.Reset()
			for i := 0; i < 3*arenaSlabSize; i++ {
				if v := a.newValue(); !reflect.ValueOf(*v).IsZero() {
					t.Fatalf("value %d after Reset: %+v", i, *v)
				}
			}
			for run := 0; run < 3; run++ {
				c := a.newChildren(arenaSlabSize)
				for i, p := range c[:cap(c)] {
					if p != nil {
						t.Fatalf("child run %d cell %d after Reset: %p", run, i, p)
					}
				}
			}
		})
	}
}
