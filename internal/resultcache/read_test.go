package resultcache

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/pipeline"
)

// TestReadSmallBoundaries reads files around the buffer size: a file
// shorter than the buffer is returned whole, and one that fills it is
// errBufferFull, for the caller to read another way.
func TestReadSmallBoundaries(t *testing.T) {
	dir := t.TempDir()
	var buf [64]byte
	for _, n := range []int{0, 1, len(buf) - 1, len(buf), len(buf) + 1, 3 * len(buf)} {
		data := bytes.Repeat([]byte{byte(n)}, n)
		path := filepath.Join(dir, "f")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := readSmall(path, buf[:])
		if n >= len(buf) {
			if err != errBufferFull {
				t.Errorf("%d-byte file: err %v, want errBufferFull", n, err)
			}
			continue
		}
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("%d-byte file: read %d bytes, err %v", n, len(got), err)
		}
	}
	if _, err := readSmall(filepath.Join(dir, "absent"), buf[:]); !os.IsNotExist(err) {
		t.Errorf("absent file: err %v, want not-exist", err)
	}
}

// TestLargeEntryRoundTripsThroughFallback stores an entry larger than
// the read buffer (a long activity trace) and serves it from a reopened
// cache, through the os.ReadFile fallback.
func TestLargeEntryRoundTripsThroughFallback(t *testing.T) {
	dir := t.TempDir()
	k, v := testKey(5), testValue(5)
	v.Samples = make([]pipeline.ActivitySample, 2*entryReadBytes/sampleBytes)
	for i := range v.Samples {
		v.Samples[i].Cycle = uint64(100 * i)
		v.Samples[i].UnitOps[i%pipeline.NumUnits] = uint64(i)
		v.Samples[i].Retired = uint64(3 * i)
	}
	if err := mustOpen(t, Options{Dir: dir}).Put(k, v); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if fi, err := os.Stat(entryFile(t, dir, k)); err != nil || fi.Size() <= entryReadBytes {
		t.Fatalf("entry stat %v, %v: want more than %d bytes", fi, err, entryReadBytes)
	}
	c := mustOpen(t, Options{Dir: dir})
	got, ok := c.Get(k)
	if !ok {
		t.Fatalf("miss after reopen, stats %+v", c.Stats())
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatal("large entry read back differs from what was stored")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 0 || st.Errors != 0 || st.Corrupt != 0 {
		t.Fatalf("stats %+v, want one hit", st)
	}
}

// TestTrailingBytesAreCorruptMiss appends bytes to a stored entry, a
// few and then enough to fill the read buffer: both are corrupt misses.
func TestTrailingBytesAreCorruptMiss(t *testing.T) {
	dir := t.TempDir()
	k := testKey(4)
	c := mustOpen(t, Options{Dir: dir, MaxMemEntries: -1})
	if err := c.Put(k, testValue(4)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	path := entryFile(t, dir, k)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, extra := range []int{1, entryReadBytes} {
		if err := os.WriteFile(path, append(raw, make([]byte, extra)...), 0o644); err != nil {
			t.Fatal(err)
		}
		before := c.Stats()
		if _, ok := c.Get(k); ok {
			t.Fatalf("%d trailing bytes: hit", extra)
		}
		if after := c.Stats(); after.Corrupt != before.Corrupt+1 || after.Misses != before.Misses+1 {
			t.Fatalf("%d trailing bytes: stats %+v → %+v, want one corrupt miss", extra, before, after)
		}
	}
}

// TestUnreadableEntryIsErrorMiss puts something that cannot be read
// where an entry belongs: each lookup is one miss counted as an error.
// An absent entry is a plain miss.
func TestUnreadableEntryIsErrorMiss(t *testing.T) {
	errorMiss := func(t *testing.T, c *Cache, k Key) {
		t.Helper()
		before := c.Stats()
		if _, ok := c.Get(k); ok {
			t.Fatal("hit on an unreadable entry")
		}
		after := c.Stats()
		if after.Errors != before.Errors+1 || after.Misses != before.Misses+1 || after.Corrupt != before.Corrupt {
			t.Fatalf("stats %+v → %+v, want one error miss", before, after)
		}
	}
	t.Run("absent", func(t *testing.T) {
		c := mustOpen(t, Options{Dir: t.TempDir(), MaxMemEntries: -1})
		if _, ok := c.Get(testKey(6)); ok {
			t.Fatal("hit on an empty cache")
		}
		if st := c.Stats(); st != (Stats{Misses: 1}) {
			t.Fatalf("stats %+v, want one plain miss", st)
		}
	})
	t.Run("directory", func(t *testing.T) {
		c := mustOpen(t, Options{Dir: t.TempDir(), MaxMemEntries: -1})
		k := testKey(6)
		if err := os.MkdirAll(c.entryPath(k.Fingerprint()), 0o755); err != nil {
			t.Fatal(err)
		}
		errorMiss(t, c, k)
	})
	t.Run("unreadable", func(t *testing.T) {
		if runtime.GOOS == "windows" || os.Geteuid() == 0 {
			t.Skip("permission bits do not stop this user reading a file")
		}
		dir := t.TempDir()
		c := mustOpen(t, Options{Dir: dir, MaxMemEntries: -1})
		k := testKey(6)
		if err := c.Put(k, testValue(6)); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if err := os.Chmod(entryFile(t, dir, k), 0); err != nil {
			t.Fatal(err)
		}
		errorMiss(t, c, k)
	})
}
