package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func small() Config { return Config{SizeBytes: 1024, LineBytes: 64, Ways: 2} } // 8 sets

func TestConfigValidate(t *testing.T) {
	if err := small().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{SizeBytes: 1024, LineBytes: 48, Ways: 2},       // non-power-of-two line
		{SizeBytes: 1024, LineBytes: 64, Ways: 0},       // no ways
		{SizeBytes: 1000, LineBytes: 64, Ways: 2},       // indivisible
		{SizeBytes: 64 * 2 * 3, LineBytes: 64, Ways: 2}, // 3 sets
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad[%d] accepted: %+v", i, c)
		}
	}
	if _, err := New(bad[0]); err == nil {
		t.Error("New accepted invalid config")
	}
}

func TestHitMissBasics(t *testing.T) {
	c := MustNew(small())
	if c.Access(0x1000) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Error("second access missed")
	}
	if !c.Access(0x1038) {
		t.Error("same-line access missed")
	}
	if c.Access(0x1040) {
		t.Error("next-line access hit cold")
	}
	st := c.Stats()
	if st.Accesses != 4 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := MustNew(small()) // 8 sets, 2 ways: addresses 512*k map to set 0... line 64, sets 8 → set stride 512
	a := uint64(0x0000)
	b := uint64(0x0200) // same set, different tag
	d := uint64(0x0400) // same set, third tag
	c.Access(a)
	c.Access(b)
	c.Access(a) // a most recent; b is LRU
	c.Access(d) // evicts b
	if !c.Contains(a) {
		t.Error("a evicted despite being MRU")
	}
	if c.Contains(b) {
		t.Error("b survived despite being LRU")
	}
	if !c.Contains(d) {
		t.Error("d not inserted")
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
}

func TestContainsDoesNotPerturb(t *testing.T) {
	c := MustNew(small())
	c.Access(0x0000)
	c.Access(0x0200)
	// Probing a must not refresh its LRU age.
	for i := 0; i < 5; i++ {
		c.Contains(0x0000)
	}
	c.Access(0x0400) // should evict 0x0000 (older) not 0x0200
	if c.Contains(0x0000) {
		t.Error("Contains refreshed LRU age")
	}
	if !c.Contains(0x0200) {
		t.Error("wrong victim")
	}
	if got := c.Stats().Accesses; got != 3 {
		t.Errorf("Contains counted as access: %d", got)
	}
}

func TestWorkingSetFits(t *testing.T) {
	// A working set no larger than the cache must converge to 100%
	// hits after one pass, for any access order.
	c := MustNew(Config{SizeBytes: 4096, LineBytes: 64, Ways: 4})
	lines := 4096 / 64
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < lines; i++ {
			c.Access(uint64(i * 64))
		}
	}
	st := c.Stats()
	if st.Misses != uint64(lines) {
		t.Errorf("misses = %d, want %d (cold only)", st.Misses, lines)
	}
}

func TestThrashingWorkingSet(t *testing.T) {
	// Cyclic sweep over 2× capacity with LRU yields ~0% hits.
	c := MustNew(Config{SizeBytes: 1024, LineBytes: 64, Ways: 2})
	lines := 2 * 1024 / 64
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < lines; i++ {
			c.Access(uint64(i * 64))
		}
	}
	st := c.Stats()
	if st.Misses != st.Accesses {
		t.Errorf("LRU thrash: %d misses of %d accesses, want all misses",
			st.Misses, st.Accesses)
	}
}

// TestCacheInvariantsProperty: after any access sequence, (1) the
// number of resident lines never exceeds capacity, (2) an immediate
// re-access of the last address always hits, and (3) misses ≤ accesses.
func TestCacheInvariantsProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(9))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := MustNew(Config{SizeBytes: 2048, LineBytes: 64, Ways: 2})
		var last uint64
		for i := 0; i < 500; i++ {
			last = uint64(rng.Intn(1 << 14))
			c.Access(last)
		}
		if !c.Access(last) {
			return false
		}
		st := c.Stats()
		if st.Misses > st.Accesses {
			return false
		}
		resident := 0
		for line := uint64(0); line < 1<<14/64+1; line++ {
			if c.Contains(line * 64) {
				resident++
			}
		}
		return resident <= 2048/64
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestHierarchy(t *testing.T) {
	h := MustHierarchy(DefaultHierarchy())
	lvl, lat := h.Access(0x1234_0000)
	if lvl != Memory || lat != 700 {
		t.Errorf("cold access: %v %g", lvl, lat)
	}
	lvl, lat = h.Access(0x1234_0000)
	if lvl != L1 || lat != 0 {
		t.Errorf("warm access: %v %g", lvl, lat)
	}
	if h.L1Stats().Accesses != 2 {
		t.Errorf("L1 accesses = %d", h.L1Stats().Accesses)
	}
	if h.L2Stats().Accesses != 1 {
		t.Errorf("L2 accesses = %d (L2 probed only on L1 miss)", h.L2Stats().Accesses)
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	// Fill beyond L1 but within L2: re-walk should hit mostly in L2.
	cfg := DefaultHierarchy()
	h := MustHierarchy(cfg)
	lines := (64 << 10) / 64 // 64 KiB working set: 2× L1, ≪ L2
	for i := 0; i < lines; i++ {
		h.Access(uint64(i * 64))
	}
	l2hits := 0
	for i := 0; i < lines; i++ {
		lvl, lat := h.Access(uint64(i * 64))
		if lvl == L2 {
			l2hits++
			if lat != cfg.L2LatencyFO4 {
				t.Fatalf("L2 latency = %g", lat)
			}
		}
		if lvl == Memory {
			t.Fatalf("working set within L2 went to memory")
		}
	}
	if l2hits == 0 {
		t.Error("no L2 hits for L1-overflowing working set")
	}
}

func TestHierarchyValidate(t *testing.T) {
	cfg := DefaultHierarchy()
	cfg.MemLatencyFO4 = 10 // below L2 latency
	if _, err := NewHierarchy(cfg); err == nil {
		t.Error("inverted latencies accepted")
	}
	cfg = DefaultHierarchy()
	cfg.L1.Ways = 0
	if _, err := NewHierarchy(cfg); err == nil {
		t.Error("bad L1 accepted")
	}
}

func TestLevelString(t *testing.T) {
	if L1.String() != "L1" || L2.String() != "L2" || Memory.String() != "memory" {
		t.Error("level names wrong")
	}
	if Level(9).String() == "" {
		t.Error("unknown level empty")
	}
}
