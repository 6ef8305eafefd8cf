package resultcache

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/telemetry"
)

// testKey builds a distinct, fully-populated key.
func testKey(i int) Key {
	return Key{
		ConfigHash:   telemetry.Fingerprint(fmt.Sprintf("config-%d", i)),
		PowerHash:    power.DefaultModel().Fingerprint(),
		WorkloadHash: telemetry.Fingerprint(fmt.Sprintf("profile-%d", i)),
		Depth:        10 + i,
		Instructions: 30000,
		Warmup:       30000,
	}
}

// testValue builds recognizable measurements.
func testValue(i int) pipeline.ResultData {
	return pipeline.ResultData{
		Instructions: uint64(1000 * (i + 1)),
		Cycles:       uint64(2000 * (i + 1)),
		IssueHist:    []uint64{1, 2, 3, uint64(i)},
		L1Misses:     uint64(7 * i),
	}
}

// entryFile locates the single on-disk entry for a key.
func entryFile(t *testing.T, dir string, k Key) string {
	t.Helper()
	fp := k.Fingerprint()
	path := filepath.Join(dir, fmt.Sprintf("v%d", SchemaVersion), fp[:2], fp+".entry")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("entry file: %v", err)
	}
	return path
}

func mustOpen(t *testing.T, opts Options) *Cache {
	t.Helper()
	c, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return c
}

func TestHitMissRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts func(t *testing.T) Options
	}{
		{"memory-only", func(t *testing.T) Options { return Options{} }},
		{"disk", func(t *testing.T) Options { return Options{Dir: t.TempDir()} }},
		{"disk-no-mem-front", func(t *testing.T) Options {
			return Options{Dir: t.TempDir(), MaxMemEntries: -1}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := mustOpen(t, tc.opts(t))
			k, v := testKey(1), testValue(1)
			if _, ok := c.Get(k); ok {
				t.Fatal("hit on empty cache")
			}
			if err := c.Put(k, v); err != nil {
				t.Fatalf("Put: %v", err)
			}
			got, ok := c.Get(k)
			if !ok {
				t.Fatal("miss after Put")
			}
			if got.Instructions != v.Instructions || got.Cycles != v.Cycles ||
				got.L1Misses != v.L1Misses {
				t.Fatalf("got %+v, want %+v", got, v)
			}
			if _, ok := c.Get(testKey(2)); ok {
				t.Fatal("hit for different key")
			}
			st := c.Stats()
			if st.Hits != 1 || st.Misses != 2 || st.Stores != 1 {
				t.Fatalf("stats = %+v, want 1 hit, 2 misses, 1 store", st)
			}
		})
	}
}

func TestDiskPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	k, v := testKey(1), testValue(1)
	c1 := mustOpen(t, Options{Dir: dir})
	if err := c1.Put(k, v); err != nil {
		t.Fatalf("Put: %v", err)
	}
	c2 := mustOpen(t, Options{Dir: dir})
	got, ok := c2.Get(k)
	if !ok {
		t.Fatal("miss after reopen")
	}
	if got.Cycles != v.Cycles {
		t.Fatalf("cycles = %d, want %d", got.Cycles, v.Cycles)
	}
}

func TestLRUEviction(t *testing.T) {
	c := mustOpen(t, Options{MaxMemEntries: 2}) // memory-only
	for i := 0; i < 3; i++ {
		if err := c.Put(testKey(i), testValue(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if n := c.MemLen(); n != 2 {
		t.Fatalf("MemLen = %d, want 2", n)
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	// Key 0 was least recently used: evicted; 1 and 2 remain.
	if _, ok := c.Get(testKey(0)); ok {
		t.Fatal("evicted entry still present")
	}
	for i := 1; i < 3; i++ {
		if _, ok := c.Get(testKey(i)); !ok {
			t.Fatalf("entry %d lost", i)
		}
	}
	// A disk-backed cache refills the front from disk after eviction.
	d := mustOpen(t, Options{Dir: t.TempDir(), MaxMemEntries: 1})
	for i := 0; i < 2; i++ {
		if err := d.Put(testKey(i), testValue(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if _, ok := d.Get(testKey(0)); !ok {
		t.Fatal("disk-backed entry lost after LRU eviction")
	}
}

// TestPowerModelFingerprintMismatch is the invalidation contract: any
// changed power.Model parameter must change the key and miss.
func TestPowerModelFingerprintMismatch(t *testing.T) {
	base := power.DefaultModel()
	for _, tc := range []struct {
		name string
		mod  func(power.Model) power.Model
	}{
		{"beta", func(m power.Model) power.Model { return m.WithBetaUnit(1.4) }},
		{"leakage", func(m power.Model) power.Model { return m.WithLeakageFraction(0.3, power.DefaultLeakageRefDepth) }},
		{"tech", func(m power.Model) power.Model { m.TP = 120; return m }},
		{"base-latches", func(m power.Model) power.Model {
			m.BaseLatches[pipeline.UnitFetch] *= 2
			return m
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := mustOpen(t, Options{Dir: t.TempDir()})
			k := testKey(1)
			k.PowerHash = base.Fingerprint()
			if err := c.Put(k, testValue(1)); err != nil {
				t.Fatalf("Put: %v", err)
			}
			k2 := k
			k2.PowerHash = tc.mod(base).Fingerprint()
			if k2.PowerHash == k.PowerHash {
				t.Fatal("modified model fingerprint unchanged")
			}
			if _, ok := c.Get(k2); ok {
				t.Fatal("stale hit under modified power model")
			}
			if _, ok := c.Get(k); !ok {
				t.Fatal("original entry lost")
			}
		})
	}
}

// TestCorruptEntryRecovery: damaged entries read as misses, count as
// corrupt, and are transparently replaced by the next Put.
func TestCorruptEntryRecovery(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, path string)
	}{
		{"truncated", func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flip", func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)-3] ^= 0x40
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"empty", func(t *testing.T, path string) {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"foreign-schema", func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint16(raw[6:], SchemaVersion-1)
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("not a cache entry at all"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			k, v := testKey(1), testValue(1)
			w := mustOpen(t, Options{Dir: dir})
			if err := w.Put(k, v); err != nil {
				t.Fatalf("Put: %v", err)
			}
			tc.damage(t, entryFile(t, dir, k))

			// A fresh cache (empty memory front) must read the damage
			// as a miss, not an error or a wrong value.
			c := mustOpen(t, Options{Dir: dir})
			if _, ok := c.Get(k); ok {
				t.Fatal("hit on damaged entry")
			}
			if st := c.Stats(); st.Corrupt != 1 {
				t.Fatalf("corrupt = %d, want 1", st.Corrupt)
			}
			// Re-store repairs the entry.
			if err := c.Put(k, v); err != nil {
				t.Fatalf("repair Put: %v", err)
			}
			c2 := mustOpen(t, Options{Dir: dir})
			if _, ok := c2.Get(k); !ok {
				t.Fatal("miss after repair")
			}
		})
	}
}

// TestKeyMismatchInsideEntry: an entry whose embedded key disagrees
// with the requested key (hash collision, hand-copied file) is a miss.
func TestKeyMismatchInsideEntry(t *testing.T) {
	dir := t.TempDir()
	k := testKey(1)
	w := mustOpen(t, Options{Dir: dir})
	if err := w.Put(k, testValue(1)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Copy the valid entry into the slot of a different key.
	other := testKey(2)
	raw, err := os.ReadFile(entryFile(t, dir, k))
	if err != nil {
		t.Fatal(err)
	}
	ofp := other.Fingerprint()
	dst := filepath.Join(dir, fmt.Sprintf("v%d", SchemaVersion), ofp[:2], ofp+".entry")
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	c := mustOpen(t, Options{Dir: dir})
	if _, ok := c.Get(other); ok {
		t.Fatal("hit on entry with mismatched embedded key")
	}
	if st := c.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt = %d, want 1", st.Corrupt)
	}
}

func TestReadOnly(t *testing.T) {
	dir := t.TempDir()
	k, v := testKey(1), testValue(1)
	w := mustOpen(t, Options{Dir: dir})
	if err := w.Put(k, v); err != nil {
		t.Fatalf("Put: %v", err)
	}

	ro := mustOpen(t, Options{Dir: dir, ReadOnly: true})
	if _, ok := ro.Get(k); !ok {
		t.Fatal("read-only cache missed existing entry")
	}
	// Puts must not touch disk.
	k2 := testKey(2)
	if err := ro.Put(k2, testValue(2)); err != nil {
		t.Fatalf("read-only Put: %v", err)
	}
	fp := k2.Fingerprint()
	path := filepath.Join(dir, fmt.Sprintf("v%d", SchemaVersion), fp[:2], fp+".entry")
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("read-only Put created %s", path)
	}
	// ...but do memoize in-process.
	if _, ok := ro.Get(k2); !ok {
		t.Fatal("read-only Put not memoized in memory front")
	}
	// Clear must leave disk intact.
	if err := ro.Clear(); err != nil {
		t.Fatalf("read-only Clear: %v", err)
	}
	if _, ok := ro.Get(k); !ok {
		t.Fatal("read-only Clear removed disk entry")
	}
	// Opening read-only on a missing directory must not create it.
	missing := filepath.Join(dir, "nonexistent")
	if _, err := Open(Options{Dir: missing, ReadOnly: true}); err != nil {
		t.Fatalf("read-only Open on missing dir: %v", err)
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatal("read-only Open created the cache directory")
	}
}

func TestClear(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, Options{Dir: dir})
	for i := 0; i < 3; i++ {
		if err := c.Put(testKey(i), testValue(i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := c.Clear(); err != nil {
		t.Fatalf("Clear: %v", err)
	}
	if n := c.MemLen(); n != 0 {
		t.Fatalf("MemLen after Clear = %d", n)
	}
	for i := 0; i < 3; i++ {
		if _, ok := c.Get(testKey(i)); ok {
			t.Fatalf("entry %d survived Clear", i)
		}
	}
	// The cache stays usable after clearing.
	if err := c.Put(testKey(9), testValue(9)); err != nil {
		t.Fatalf("Put after Clear: %v", err)
	}
}

// TestConcurrentWritersSameKey: racing writers of one key must leave a
// single intact entry (atomic write-then-rename), and concurrent
// readers must only ever observe complete values.
func TestConcurrentWritersSameKey(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, Options{Dir: dir})
	k, v := testKey(1), testValue(1)
	const writers = 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := c.Put(k, v); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if got, ok := c.Get(k); ok && got.Instructions != v.Instructions {
					t.Errorf("torn read: %+v", got)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Exactly one file, fully verifiable by a fresh cache.
	shardRoot := filepath.Join(dir, fmt.Sprintf("v%d", SchemaVersion))
	files := 0
	if err := filepath.WalkDir(shardRoot, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files++
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if files != 1 {
		t.Fatalf("found %d files, want 1 (leftover temp files?)", files)
	}
	fresh := mustOpen(t, Options{Dir: dir})
	if _, ok := fresh.Get(k); !ok {
		t.Fatal("entry unreadable after concurrent writes")
	}
}

func TestNilCacheIsSafe(t *testing.T) {
	var c *Cache
	if _, ok := c.Get(testKey(1)); ok {
		t.Fatal("nil cache hit")
	}
	if err := c.Put(testKey(1), testValue(1)); err != nil {
		t.Fatalf("nil Put: %v", err)
	}
	if err := c.Clear(); err != nil {
		t.Fatalf("nil Clear: %v", err)
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil Stats = %+v", st)
	}
	if c.MemLen() != 0 {
		t.Fatal("nil MemLen != 0")
	}
}

func TestMetricsMirroring(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := mustOpen(t, Options{Metrics: reg})
	c.Put(testKey(1), testValue(1))
	c.Get(testKey(1))
	c.Get(testKey(2))
	if v := reg.Counter("resultcache.hits").Value(); v != 1 {
		t.Fatalf("mirrored hits = %d, want 1", v)
	}
	if v := reg.Counter("resultcache.misses").Value(); v != 1 {
		t.Fatalf("mirrored misses = %d, want 1", v)
	}
	if v := reg.Counter("resultcache.stores").Value(); v != 1 {
		t.Fatalf("mirrored stores = %d, want 1", v)
	}
}

func TestHitRate(t *testing.T) {
	if hr := (Stats{}).HitRate(); hr != 0 {
		t.Fatalf("idle hit rate = %v", hr)
	}
	if hr := (Stats{Hits: 3, Misses: 1}).HitRate(); hr != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", hr)
	}
}

func TestKeyFingerprintSensitivity(t *testing.T) {
	base := testKey(1)
	fields := map[string]func(Key) Key{
		"config":       func(k Key) Key { k.ConfigHash = "x"; return k },
		"power":        func(k Key) Key { k.PowerHash = "x"; return k },
		"profile-hash": func(k Key) Key { k.WorkloadHash = "x"; return k },
		"depth":        func(k Key) Key { k.Depth++; return k },
		"instructions": func(k Key) Key { k.Instructions++; return k },
		"warmup":       func(k Key) Key { k.Warmup++; return k },
	}
	for name, mod := range fields {
		if mod(base).Fingerprint() == base.Fingerprint() {
			t.Errorf("fingerprint insensitive to %s", name)
		}
	}
	if testKey(1).Fingerprint() != base.Fingerprint() {
		t.Error("fingerprint not stable")
	}
}

// fmtKeyFingerprint is Key.Fingerprint as it was first written, with
// fmt: the oracle for the keys of every entry on disk.
func fmtKeyFingerprint(k Key) string {
	return telemetry.Fingerprint(
		schemaTerm,
		"config:"+k.ConfigHash,
		"power:"+k.PowerHash,
		"profile:"+k.WorkloadHash,
		fmt.Sprintf("cell:d=%d n=%d w=%d", k.Depth, k.Instructions, k.Warmup),
	)
}

func TestKeyFingerprintMatchesFmtRendering(t *testing.T) {
	keys := []Key{{}, testKey(0), testKey(1), testKey(99)}
	for i := range 3 {
		k := testKey(i)
		k.Depth, k.Instructions, k.Warmup = -i, math.MaxInt, math.MinInt
		keys = append(keys, k)
	}
	// Hashes longer than the renderer's stack buffer.
	long := strings.Repeat("0123456789abcdef", 8)
	keys = append(keys, Key{ConfigHash: long, PowerHash: long + long, WorkloadHash: "ü", Depth: 40})
	for _, k := range keys {
		if got, want := k.Fingerprint(), fmtKeyFingerprint(k); got != want {
			t.Errorf("%+v: Fingerprint %s, fmt rendering %s", k, got, want)
		}
	}
	k := testKey(3)
	if allocs := testing.AllocsPerRun(100, func() { k.Fingerprint() }); allocs != 1 {
		t.Errorf("Key.Fingerprint allocates %v times per call, want 1 (its hex string)", allocs)
	}
}
