// Package resultcache is a content-addressed cache of simulation
// results. A design point — one (machine configuration, power model,
// workload, depth, instruction budget) cell of the paper's sweep — is
// identified by a fingerprint of everything that determines its
// outcome; what the simulator measured there (pipeline.ResultData) is
// stored under that fingerprint on disk, fronted by an in-memory LRU.
// Power is not stored: the reader prices the measured activity under
// its own power model, as the paper's monitor does after a run.
//
// Properties:
//
//   - Content addressing: the key hashes the full configuration, so a
//     changed machine, power model or workload can never alias a stale
//     entry — invalidation is automatic, never explicit.
//   - Durability: entries are written to a temporary file and then
//     renamed into place, so readers never observe partial writes and
//     concurrent writers of the same key are safe (last rename wins
//     with identical content).
//   - Corruption detection: each entry carries a CRC-32C checksum, a
//     schema version and its full key; unreadable, truncated, corrupted,
//     colliding or foreign-schema entries are treated as misses, never
//     as errors.
//   - Observability: hits, misses, stores, evictions and corrupt
//     entries are counted (Stats) and optionally mirrored into a
//     telemetry.Registry.
package resultcache

import (
	"container/list"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"

	"repro/internal/pipeline"
	"repro/internal/telemetry"
)

// SchemaVersion identifies the on-disk entry layout. Bump it whenever
// the envelope or payload schema changes incompatibly: old entries
// then read as misses and are re-simulated, never misparsed.
//
// v2: power.Breakdown gained the PerUnitDynamic/PerUnitLeakage
// attribution split; v1 entries would restore with a zero split.
//
// v3: ResultData gained the CycleBudget attribution; v2 entries would
// restore with a zero budget and trip the cycle-budget invariant.
//
// v4: the JSON envelope behind a text header became a binary frame
// (fixed-width magic, schema, CRC-32C and length, then the key and value
// field by field; see codec.go). Entry files are named <fp>.entry.
//
// v5: an entry is the key and the ResultData alone. The cycle time and
// both power breakdowns are no longer stored (the reader prices power),
// and the key no longer carries the workload name and seed, which its
// WorkloadHash already renders.
const SchemaVersion = 5

// DefaultMemEntries is the default capacity of the in-memory LRU
// front (a full 55-workload × 24-depth catalog sweep is 1320 entries).
const DefaultMemEntries = 4096

// schemaTerm ties every fingerprint to the entry layout.
var schemaTerm = fmt.Sprintf("schema:%s%d", entryMagic, SchemaVersion)

// Key identifies one simulation cell. Every field participates in the
// fingerprint; two keys with equal fingerprints must describe runs
// that produce bit-identical results.
type Key struct {
	// ConfigHash is pipeline.Config.Fingerprint(): machine geometry,
	// depth plan, technology constants and attached-model geometry.
	ConfigHash string
	// PowerHash is power.Model.Fingerprint(): the pricing model.
	PowerHash string
	// WorkloadHash fingerprints the full behavioural profile, its name
	// and seed included, so an edited profile with an unchanged name
	// cannot alias old entries.
	WorkloadHash string
	// Depth, Instructions and Warmup locate the cell within a study.
	Depth        int
	Instructions int
	Warmup       int
}

// Fingerprint returns the stable content address of the key. Its parts
// are schemaTerm, "config:", "power:" and "profile:" followed by their
// hashes, and "cell:d=<Depth> n=<Instructions> w=<Warmup>"; each is
// rendered into a stack buffer, as every cache lookup renders a key.
func (k Key) Fingerprint() string {
	var buf [96]byte
	h := telemetry.NewFingerprintHash()
	h.Part(append(buf[:0], schemaTerm...))
	h.Part(append(append(buf[:0], "config:"...), k.ConfigHash...))
	h.Part(append(append(buf[:0], "power:"...), k.PowerHash...))
	h.Part(append(append(buf[:0], "profile:"...), k.WorkloadHash...))
	b := strconv.AppendInt(append(buf[:0], "cell:d="...), int64(k.Depth), 10)
	b = strconv.AppendInt(append(b, " n="...), int64(k.Instructions), 10)
	h.Part(strconv.AppendInt(append(b, " w="...), int64(k.Warmup), 10))
	return h.String()
}

// Options configures Open.
type Options struct {
	// Dir is the cache root. Entries live under Dir/v<schema>/.
	// Empty means memory-only: the LRU front works, nothing persists.
	Dir string
	// ReadOnly serves hits from disk and memory but never writes
	// entries to disk (memory caching of values seen via Get/Put still
	// happens, so a read-only cache stays useful within a process).
	ReadOnly bool
	// MaxMemEntries bounds the LRU front; DefaultMemEntries if 0,
	// negative disables the memory front entirely.
	MaxMemEntries int
	// Metrics, when non-nil, mirrors the cache counters as
	// "resultcache.*" in the registry.
	Metrics *telemetry.Registry
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	Hits      uint64 // Get served from memory or disk
	Misses    uint64 // Get found nothing usable
	Stores    uint64 // Put persisted (or, read-only, memoized) an entry
	Evictions uint64 // LRU front evictions
	Corrupt   uint64 // entries dropped by checksum/schema/key checks
	Errors    uint64 // I/O failures (counted, surfaced only by Put)
}

// HitRate returns hits/(hits+misses), 0 when idle.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Cache is a concurrency-safe result cache. The zero value is not
// usable; call Open. A nil *Cache is legal everywhere and behaves as
// "always miss, drop stores", so call sites need no guards.
//
// The LRU front and the counters, declared after mu, are guarded by mu.
// Disk reads, decodes, encodes and writes run outside it, so concurrent
// Gets and Puts overlap their I/O.
type Cache struct {
	dir      string // versioned root, "" when memory-only
	readonly bool
	reg      *telemetry.Registry
	cap      int

	mu    sync.Mutex
	order *list.List               // front = most recent
	mem   map[string]*list.Element // fingerprint → element
	stats Stats
}

// lruEntry is what the LRU list holds.
type lruEntry struct {
	fp  string
	val pipeline.ResultData
}

// Open prepares a cache rooted at opts.Dir, creating the versioned
// directory unless read-only.
func Open(opts Options) (*Cache, error) {
	c := &Cache{
		readonly: opts.ReadOnly,
		reg:      opts.Metrics,
		cap:      opts.MaxMemEntries,
		order:    list.New(),
		mem:      make(map[string]*list.Element),
	}
	if c.cap == 0 {
		c.cap = DefaultMemEntries
	}
	if opts.Dir != "" {
		c.dir = filepath.Join(opts.Dir, fmt.Sprintf("v%d", SchemaVersion))
		if !opts.ReadOnly {
			if err := os.MkdirAll(c.dir, 0o755); err != nil {
				return nil, fmt.Errorf("resultcache: %w", err)
			}
		}
	}
	return c, nil
}

// OpenDir opens the cache a command line names: its directory (empty
// disables caching and gives a nil Cache), whether it is read-only, and
// whether to clear it first.
func OpenDir(dir string, readonly, clear bool, reg *telemetry.Registry) (*Cache, error) {
	if dir == "" {
		return nil, nil
	}
	c, err := Open(Options{Dir: dir, ReadOnly: readonly, Metrics: reg})
	if err != nil {
		return nil, err
	}
	if clear {
		if err := c.Clear(); err != nil {
			return nil, fmt.Errorf("clear cache: %w", err)
		}
	}
	return c, nil
}

// LogSummary reports the cache's effectiveness for the run as one
// "cache summary" record; a nil cache logs nothing.
func (c *Cache) LogSummary(log *slog.Logger) {
	if c == nil {
		return
	}
	st := c.Stats()
	log.Info("cache summary",
		"hits", st.Hits, "misses", st.Misses,
		"hit_rate", fmt.Sprintf("%.0f%%", 100*st.HitRate()),
		"stored", st.Stores)
}

// entryPath shards entries by the first byte of the fingerprint so no
// directory grows unboundedly. The root is already clean (Open joins
// it) and fp is hex, so plain concatenation is the joined path.
func (c *Cache) entryPath(fp string) string {
	const sep = string(filepath.Separator)
	return c.dir + sep + fp[:2] + sep + fp + ".entry"
}

// count bumps a stats field and mirrors it to the registry. Callers
// hold c.mu.
func (c *Cache) count(field *uint64, name string) {
	*field++
	if c.reg != nil {
		c.reg.Counter("resultcache." + name).Add(1)
	}
}

// Get returns the cached measurements for the key, if present and
// intact. The memory front is consulted under the lock; a disk entry is
// read and decoded outside it, so concurrent Gets decode in parallel.
// The returned data shares slice storage with the memory front: callers
// must not mutate it (pipeline.ResultData.Restore copies).
func (c *Cache) Get(key Key) (pipeline.ResultData, bool) {
	if c == nil {
		return pipeline.ResultData{}, false
	}
	fp := key.Fingerprint()
	if v, ok := c.lookup(fp); ok || c.dir == "" {
		return v, ok
	}
	e, got := c.readEntry(fp, key)
	c.mu.Lock()
	defer c.mu.Unlock()
	switch got {
	case readFailed:
		c.count(&c.stats.Errors, "errors")
	case readCorrupt:
		c.count(&c.stats.Corrupt, "corrupt")
	}
	if got != readOK {
		c.count(&c.stats.Misses, "misses")
		return pipeline.ResultData{}, false
	}
	c.memAdd(e)
	c.count(&c.stats.Hits, "hits")
	return e.val, true
}

// lookup serves fp from the memory front, counting the hit. Without a
// disk behind the front a miss there is final and is counted too.
func (c *Cache) lookup(fp string) (pipeline.ResultData, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.mem[fp]; ok {
		c.order.MoveToFront(el)
		c.count(&c.stats.Hits, "hits")
		return el.Value.(*lruEntry).val, true
	}
	if c.dir == "" {
		c.count(&c.stats.Misses, "misses")
	}
	return pipeline.ResultData{}, false
}

// readOutcome is how a disk read ended; Get counts it under the lock.
type readOutcome int

const (
	readOK      readOutcome = iota
	readAbsent              // no entry file: a plain miss
	readFailed              // the file exists but could not be read
	readCorrupt             // damaged, foreign-schema or another key's entry
)

// entryReadBytes sizes the buffers disk entries are read into. An entry
// of the default machine is about 600 bytes; one with an activity trace
// (SampleInterval) can outgrow the buffer and is read by os.ReadFile
// instead.
const entryReadBytes = 1536

// readBufs recycles entry read buffers. A buffer on the stack would
// escape anyway: the CRC-32C check hands the bytes to crc32's
// hardware update through a function value.
var readBufs = sync.Pool{New: func() any { return new([entryReadBytes]byte) }}

// readEntry loads and verifies one disk entry into a new LRU entry. It
// touches no guarded state, so it runs without the lock. The decoder
// copies everything it keeps, so the read buffer is recycled.
func (c *Cache) readEntry(fp string, key Key) (*lruEntry, readOutcome) {
	path := c.entryPath(fp)
	buf := readBufs.Get().(*[entryReadBytes]byte)
	defer readBufs.Put(buf)
	raw, err := readSmall(path, buf[:])
	if err == errBufferFull {
		raw, err = os.ReadFile(path)
	}
	if err != nil {
		if os.IsNotExist(err) {
			return nil, readAbsent
		}
		return nil, readFailed
	}
	e := &lruEntry{fp: fp}
	if !decodeEntry(raw, key, &e.val) {
		return nil, readCorrupt
	}
	return e, readOK
}

// errBufferFull reports a file that filled readSmall's buffer.
var errBufferFull = errors.New("resultcache: entry larger than the read buffer")

// readSmall reads the whole file at path into buf with one open, reads
// until end of file, and one close. It bypasses os.File, which would
// fstat the file and try to register it with the runtime poller. A file
// that fills buf returns errBufferFull.
func readSmall(path string, buf []byte) ([]byte, error) {
	const flags = syscall.O_RDONLY | syscall.O_CLOEXEC
	fd, err := syscall.Open(path, flags, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(path, flags, 0)
	}
	if err != nil {
		return nil, err
	}
	defer syscall.Close(fd)
	n := 0
	for n < len(buf) {
		m, err := syscall.Read(fd, buf[n:])
		switch {
		case err == syscall.EINTR:
		case err != nil:
			return nil, err
		case m == 0:
			return buf[:n], nil
		default:
			n += m
		}
	}
	return nil, errBufferFull
}

// Put stores the measurements, which the cache then owns: callers must
// not mutate them afterwards. Read-only caches memoize without touching
// disk. I/O errors are returned (and counted) but callers may treat
// them as advisory: a failed store only costs a future re-simulation.
// The entry is encoded, written and renamed outside the lock.
func (c *Cache) Put(key Key, v pipeline.ResultData) error {
	if c == nil {
		return nil
	}
	fp := key.Fingerprint()
	if !c.remember(fp, v) || c.dir == "" {
		return nil
	}
	if err := c.writeEntry(fp, encodeEntry(key, v)); err != nil {
		c.mu.Lock()
		c.count(&c.stats.Errors, "errors")
		c.mu.Unlock()
		return err
	}
	return nil
}

// remember adds the measurements to the memory front and reports
// whether they are a store to persist: read-only caches memoize
// in-process only, which is not a store the cache will serve to anyone
// else.
func (c *Cache) remember(fp string, v pipeline.ResultData) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.memAdd(&lruEntry{fp: fp, val: v})
	if c.readonly {
		return false
	}
	c.count(&c.stats.Stores, "stores")
	return true
}

// writeEntry performs the atomic write-then-rename into the shard
// directory. It touches no guarded state, so it runs without the lock.
func (c *Cache) writeEntry(fp string, data []byte) error {
	path := c.entryPath(fp)
	shard := filepath.Dir(path)
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	tmp, err := os.CreateTemp(shard, ".tmp-"+fp+"-*")
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: write: %w", werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: rename: %w", err)
	}
	return nil
}

// memAdd inserts into the LRU front, evicting as needed. Callers hold
// c.mu.
func (c *Cache) memAdd(e *lruEntry) {
	if c.cap < 0 {
		return
	}
	if el, ok := c.mem[e.fp]; ok {
		el.Value = e
		c.order.MoveToFront(el)
		return
	}
	c.mem[e.fp] = c.order.PushFront(e)
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.mem, last.Value.(*lruEntry).fp)
		c.count(&c.stats.Evictions, "evictions")
	}
}

// Clear removes every entry, on disk and in memory. Read-only caches
// clear only the memory front.
func (c *Cache) Clear() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.mem = make(map[string]*list.Element)
	if c.dir == "" || c.readonly {
		return nil
	}
	if err := os.RemoveAll(c.dir); err != nil {
		return fmt.Errorf("resultcache: clear: %w", err)
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return fmt.Errorf("resultcache: clear: %w", err)
	}
	return nil
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// MemLen returns the number of entries in the LRU front.
func (c *Cache) MemLen() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
