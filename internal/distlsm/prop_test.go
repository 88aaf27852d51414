package distlsm

import (
	"sort"
	"testing"
	"testing/quick"

	"klsm/internal/block"
	"klsm/internal/item"
)

// TestPropOwnerSequenceMatchesOracle: arbitrary owner-side op sequences
// (insert / find-min+take) agree with a sorted-slice oracle, and the block
// structure invariants hold throughout.
func TestPropOwnerSequenceMatchesOracle(t *testing.T) {
	f := func(ops []uint16) bool {
		d := newDist[int](1, -1)
		var ref []uint64
		for _, op := range ops {
			if op&1 == 0 || len(ref) == 0 {
				key := uint64(op >> 1)
				d.Insert(item.New(key, 0), nil)
				i := sort.Search(len(ref), func(i int) bool { return ref[i] >= key })
				ref = append(ref, 0)
				copy(ref[i+1:], ref[i:])
				ref[i] = key
			} else {
				it := d.FindMin()
				if it == nil || it.Key() != ref[0] {
					return false
				}
				if !it.TryTake() {
					return false
				}
				ref = ref[1:]
			}
			if !d.CheckInvariants() {
				return false
			}
		}
		return d.LiveCount() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestPropBoundNeverExceeded: for arbitrary insert sequences and k, the
// Dist never holds more than k items locally.
func TestPropBoundNeverExceeded(t *testing.T) {
	f := func(keys []uint64, kSel uint8) bool {
		ks := []int{0, 1, 3, 7, 15, 64, 255}
		k := ks[int(kSel)%len(ks)]
		d := newDist[int](1, k)
		sink := func(*block.Block[int]) {}
		for _, key := range keys {
			d.Insert(item.New(key, 0), sink)
			if d.LiveCount() > k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPropSpyIsComplete: after quiescence, a spy of a victim sees every
// live item the victim holds.
func TestPropSpyIsComplete(t *testing.T) {
	f := func(keys []uint64, deletions uint8) bool {
		victim := newDist[int](1, -1)
		for _, k := range keys {
			victim.Insert(item.New(k, 0), nil)
		}
		for i := 0; i < int(deletions)%(len(keys)+1); i++ {
			if it := victim.FindMin(); it != nil {
				it.TryTake()
			}
		}
		want := victim.LiveCount()
		thief := newDist[int](2, -1)
		thief.Spy(victim)
		return thief.LiveCount() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
