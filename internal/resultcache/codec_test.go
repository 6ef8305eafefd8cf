package resultcache

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/pipeline"
)

// filler sets every leaf of a value to a distinct non-zero value.
type filler struct {
	t    *testing.T
	next uint64
}

func (f *filler) fill(v reflect.Value, path string) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f.fill(v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			f.fill(v.Index(i), path)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 3, 3))
		for i := 0; i < v.Len(); i++ {
			f.fill(v.Index(i), path)
		}
	case reflect.Uint64:
		f.next++
		v.SetUint(f.next)
	case reflect.Int:
		f.next++
		v.SetInt(-int64(f.next))
	default:
		f.t.Fatalf("%s: the codec test cannot fill a %s; extend the filler and the codec", path, v.Type())
	}
}

// sameBits compares two values leaf by leaf and returns the path of the
// first difference.
func sameBits(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if p := sameBits(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); p != "" {
				return p
			}
		}
	case reflect.Array, reflect.Slice:
		if a.Len() != b.Len() {
			return path + " (length)"
		}
		for i := 0; i < a.Len(); i++ {
			if p := sameBits(a.Index(i), b.Index(i), path); p != "" {
				return p
			}
		}
	default:
		if !a.Equal(b) {
			return path
		}
	}
	return ""
}

// TestValueCodecCoversEveryField round-trips a pipeline.ResultData
// whose every leaf field holds a distinct value through Put, a reopen
// and Get. A field added to ResultData but not to the codec comes back
// zero and fails here.
func TestValueCodecCoversEveryField(t *testing.T) {
	var want pipeline.ResultData
	(&filler{t: t}).fill(reflect.ValueOf(&want).Elem(), "ResultData")
	dir := t.TempDir()
	k := testKey(1)
	if err := mustOpen(t, Options{Dir: dir}).Put(k, want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := mustOpen(t, Options{Dir: dir}).Get(k)
	if !ok {
		t.Fatal("miss after reopen")
	}
	if p := sameBits(reflect.ValueOf(want), reflect.ValueOf(got), "ResultData"); p != "" {
		t.Fatalf("%s did not survive the disk round trip", p)
	}
}

// TestEntryDamageIsCorruptMiss reads every prefix truncation and every
// single-bit flip of a stored entry: each must be a miss counted as
// corrupt, never a panic or a wrong value.
func TestEntryDamageIsCorruptMiss(t *testing.T) {
	dir := t.TempDir()
	k := testKey(3)
	c := mustOpen(t, Options{Dir: dir, MaxMemEntries: -1})
	if err := c.Put(k, testValue(3)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	path := entryFile(t, dir, k)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damaged := func(what string, data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		before := c.Stats()
		if _, ok := c.Get(k); ok {
			t.Fatalf("%s: hit on a damaged entry", what)
		}
		after := c.Stats()
		if after.Corrupt != before.Corrupt+1 || after.Misses != before.Misses+1 {
			t.Fatalf("%s: stats %+v → %+v, want one corrupt miss", what, before, after)
		}
	}
	for n := 0; n < len(raw); n++ {
		damaged(fmt.Sprintf("truncated to %d bytes", n), raw[:n])
	}
	flipped := make([]byte, len(raw))
	for bit := 0; bit < 8*len(raw); bit++ {
		copy(flipped, raw)
		flipped[bit/8] ^= 1 << (bit % 8)
		damaged(fmt.Sprintf("bit %d flipped", bit), flipped)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k); !ok {
		t.Fatal("the undamaged entry no longer reads")
	}
}

// FuzzEntryDecode feeds arbitrary bytes to the entry decoder, both as
// a whole entry file and as a payload behind a valid header (so that
// inputs reach the payload decoder past the checksum). It must never
// panic, and an entry it accepts must be exactly what the encoder
// writes for the measurements it decoded.
func FuzzEntryDecode(f *testing.F) {
	k := testKey(1)
	valid := encodeEntry(k, testValue(1))
	f.Add(valid)
	f.Add(valid[headerBytes:])
	f.Add(valid[headerBytes : len(valid)-1])
	f.Add([]byte("RCACHE999 00000000 0\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		sealed := append(make([]byte, headerBytes), data...)
		seal(sealed)
		for _, entry := range [][]byte{data, sealed} {
			var v pipeline.ResultData
			if !decodeEntry(entry, k, &v) {
				continue
			}
			if re := encodeEntry(k, v); !bytes.Equal(re, entry) {
				t.Fatalf("accepted entry re-encodes differently:\n got %x\nwant %x", re, entry)
			}
		}
	})
}

// TestConcurrentGetPut drives one disk cache from many goroutines:
// Gets, Puts and reopened readers of shared and private keys. Every
// hit must carry its key's measurements, and the counters must add up
// exactly.
// Run it under -race: Get and Put do their disk I/O outside the lock.
func TestConcurrentGetPut(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, Options{Dir: dir, MaxMemEntries: 3})
	const workers, rounds = 8, 60
	var gets, puts atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := i % 4 // shared by every worker
				if w%2 == 1 {
					id = 100 + w*rounds + i/3 // this worker's own
				}
				k, want := testKey(id), testValue(id)
				check := func(got pipeline.ResultData, ok bool) {
					if p := sameBits(reflect.ValueOf(want), reflect.ValueOf(got), "ResultData"); ok && p != "" {
						t.Errorf("key %d: hit with a wrong %s", id, p)
					}
				}
				switch i % 3 {
				case 0:
					puts.Add(1)
					if err := c.Put(k, want); err != nil {
						t.Errorf("Put: %v", err)
					}
				case 1:
					gets.Add(1)
					check(c.Get(k))
				case 2:
					r, err := Open(Options{Dir: dir})
					if err != nil {
						t.Errorf("reopen: %v", err)
						continue
					}
					check(r.Get(k))
					if st := r.Stats(); st.Hits+st.Misses != 1 || st.Corrupt+st.Errors != 0 {
						t.Errorf("reopened cache after one Get: %+v", st)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != gets.Load() || st.Stores != puts.Load() {
		t.Fatalf("stats %+v after %d gets and %d puts", st, gets.Load(), puts.Load())
	}
	if st.Corrupt != 0 || st.Errors != 0 {
		t.Fatalf("stats %+v: concurrent use damaged an entry", st)
	}
}
