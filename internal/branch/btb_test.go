package branch

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBTBGeometryValidation(t *testing.T) {
	if _, err := NewBTB(0, 1); err == nil {
		t.Error("zero entries accepted")
	}
	if _, err := NewBTB(100, 4); err == nil {
		t.Error("non-power-of-two entries accepted")
	}
	if _, err := NewBTB(64, 0); err == nil {
		t.Error("zero ways accepted")
	}
	if _, err := NewBTB(64, 3); err == nil {
		t.Error("indivisible ways accepted")
	}
	if _, err := NewBTB(512, 4); err != nil {
		t.Errorf("valid geometry rejected: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustBTB did not panic")
		}
	}()
	MustBTB(7, 1)
}

func TestBTBHitAfterUpdate(t *testing.T) {
	b := MustBTB(64, 4)
	if _, hit := b.Lookup(0x1000); hit {
		t.Error("cold lookup hit")
	}
	b.Update(0x1000, 0x2000)
	tgt, hit := b.Lookup(0x1000)
	if !hit || tgt != 0x2000 {
		t.Fatalf("lookup = %#x, %v", tgt, hit)
	}
	// Target refresh.
	b.Update(0x1000, 0x3000)
	if tgt, _ := b.Lookup(0x1000); tgt != 0x3000 {
		t.Errorf("stale target %#x", tgt)
	}
	if st := b.Stats(); 2*st.Hits <= st.Lookups || st.Hits >= st.Lookups {
		t.Errorf("hits %d of %d lookups, want a rate in (0.5, 1)", st.Hits, st.Lookups)
	}
}

func TestBTBLRUEviction(t *testing.T) {
	b := MustBTB(2, 2) // one set, two ways
	b.Update(0x1000, 0xA)
	b.Update(0x2000, 0xB)
	b.Lookup(0x1000) // refresh A
	b.Update(0x3000, 0xC)
	if _, hit := b.Lookup(0x2000); hit {
		t.Error("LRU entry survived")
	}
	if _, hit := b.Lookup(0x1000); !hit {
		t.Error("MRU entry evicted")
	}
}

// TestBTBProperty: after updating a set of branches whose count fits
// the capacity, every one of them must hit with its latest target.
func TestBTBProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(31))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := MustBTB(256, 4)
		targets := map[uint64]uint64{}
		for i := 0; i < 64; i++ { // ≤ capacity and ≤ ways per set likely
			pc := uint64(0x1000 + 4*rng.Intn(64)) // 64 distinct pcs max
			tgt := uint64(rng.Intn(1 << 20))
			b.Update(pc, tgt)
			targets[pc] = tgt
		}
		for pc, want := range targets {
			got, hit := b.Lookup(pc)
			if !hit || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
