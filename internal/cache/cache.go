// Package cache models the data-cache hierarchy behind the pipeline
// simulator: set-associative caches with true-LRU replacement composed
// into an L1/L2/memory hierarchy. Miss latencies are specified in FO4
// time (they are physical wire/array delays, independent of how deeply
// the core is pipelined); the simulator converts them to cycles at the
// current cycle time. This fixed-time behaviour is what makes the
// simulated hazard cost grow sublinearly with pipeline depth, exactly
// as in a real machine.
package cache

import (
	"errors"
	"fmt"
	"math/bits"
)

// Config sizes one cache.
type Config struct {
	SizeBytes int // total capacity
	LineBytes int // line size (power of two)
	Ways      int // associativity (≥ 1)
}

// Validate reports configuration problems.
func (c Config) Validate() error {
	switch {
	case c.LineBytes <= 0 || bits.OnesCount(uint(c.LineBytes)) != 1:
		return fmt.Errorf("cache: line size %d not a positive power of two", c.LineBytes)
	case c.Ways <= 0:
		return fmt.Errorf("cache: ways %d must be positive", c.Ways)
	case c.SizeBytes <= 0 || c.SizeBytes%(c.LineBytes*c.Ways) != 0:
		return fmt.Errorf("cache: size %d not divisible into %d-way sets of %d-byte lines",
			c.SizeBytes, c.Ways, c.LineBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Ways)
	if bits.OnesCount(uint(sets)) != 1 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Stats counts cache traffic.
type Stats struct {
	Accesses  uint64
	Misses    uint64
	Evictions uint64
}

// Cache is a set-associative cache with true-LRU replacement. It
// tracks hit/miss behaviour only (no data storage).
type Cache struct {
	cfg       Config
	lineShift uint
	tagShift  uint
	setMask   uint64
	tags      []uint64 // sets × ways
	valid     []bool
	age       []uint64 // LRU timestamps
	clock     uint64
	stats     Stats
}

// New builds a cache; it returns an error for invalid configurations.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	n := sets * cfg.Ways
	return &Cache{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		tagShift:  uint(bits.TrailingZeros(uint(sets))),
		setMask:   uint64(sets - 1),
		tags:      make([]uint64, n),
		valid:     make([]bool, n),
		age:       make([]uint64, n),
	}, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Stats returns a copy of the traffic counters.
func (c *Cache) Stats() Stats { return c.stats }

// Access looks up addr, allocating on miss (write-allocate for both
// loads and stores), and reports whether it hit. LRU state is updated.
//
//lint:hotpath per-memory-op cache lookup; must not allocate
func (c *Cache) Access(addr uint64) (hit bool) {
	c.clock++
	c.stats.Accesses++
	line := addr >> c.lineShift
	set := int(line & c.setMask)
	tag := line >> c.tagShift
	base := set * c.cfg.Ways

	lru := base
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag {
			c.age[i] = c.clock
			return true
		}
		if c.age[i] < c.age[lru] {
			lru = i
		}
	}
	c.stats.Misses++
	if c.valid[lru] {
		c.stats.Evictions++
	}
	c.valid[lru] = true
	c.tags[lru] = tag
	c.age[lru] = c.clock
	return false
}

// Install inserts addr's line (if absent) without touching demand
// statistics — the path used by prefetches. The inserted line becomes
// most-recently-used.
//
//lint:hotpath per-prefetch line install; must not allocate
func (c *Cache) Install(addr uint64) {
	c.clock++
	line := addr >> c.lineShift
	set := int(line & c.setMask)
	tag := line >> c.tagShift
	base := set * c.cfg.Ways
	lru := base
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag {
			c.age[i] = c.clock
			return
		}
		if c.age[i] < c.age[lru] {
			lru = i
		}
	}
	c.valid[lru] = true
	c.tags[lru] = tag
	c.age[lru] = c.clock
}

// Contains reports whether addr's line is resident, without touching
// LRU state or statistics.
func (c *Cache) Contains(addr uint64) bool {
	line := addr >> c.lineShift
	set := int(line & c.setMask)
	tag := line >> c.tagShift
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag {
			return true
		}
	}
	return false
}

// Level describes where in the hierarchy an access was satisfied.
type Level int

// Hierarchy levels.
const (
	L1 Level = iota
	L2
	Memory
)

// String names the level.
func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case Memory:
		return "memory"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// HierarchyConfig sizes the data-cache hierarchy and its beyond-L1
// latencies. Latencies are in FO4 time: the simulator divides by the
// cycle time to obtain cycles at a given pipeline depth. L1 hit
// latency is not listed because the L1 access occupies the pipeline's
// cache-access stages.
type HierarchyConfig struct {
	L1            Config
	L2            Config
	L2LatencyFO4  float64 // additional latency of an L2 hit
	MemLatencyFO4 float64 // additional latency of a memory access

	// PrefetchDegree enables an idealized next-line prefetcher: on
	// every L1 demand miss, the following N lines are installed in
	// both levels (timeliness is not modeled). Degree 0 disables it.
	PrefetchDegree int
}

// DefaultHierarchy returns the study's baseline hierarchy: 32 KiB
// 4-way L1, 1 MiB 8-way L2 with 64-byte lines, 90 FO4 to L2 and
// 700 FO4 to memory (≈ 9 and ≈ 74 cycles at the paper's 9.5 FO4
// design point, ≈ 4 and ≈ 31 cycles at 22.5 FO4).
func DefaultHierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1:             Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 4},
		L2:             Config{SizeBytes: 1 << 20, LineBytes: 64, Ways: 8},
		L2LatencyFO4:   90,
		MemLatencyFO4:  700,
		PrefetchDegree: 2,
	}
}

// Validate checks the hierarchy configuration.
func (hc HierarchyConfig) Validate() error {
	if err := hc.L1.Validate(); err != nil {
		return fmt.Errorf("L1: %w", err)
	}
	if err := hc.L2.Validate(); err != nil {
		return fmt.Errorf("L2: %w", err)
	}
	if hc.L2LatencyFO4 < 0 || hc.MemLatencyFO4 < hc.L2LatencyFO4 {
		return errors.New("cache: latencies must satisfy 0 ≤ L2 ≤ memory")
	}
	if hc.PrefetchDegree < 0 || hc.PrefetchDegree > 16 {
		return errors.New("cache: prefetch degree out of range")
	}
	return nil
}

// Hierarchy is an inclusive two-level data-cache hierarchy.
type Hierarchy struct {
	cfg HierarchyConfig
	l1  *Cache
	l2  *Cache
}

// NewHierarchy builds the hierarchy.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l1, err := New(cfg.L1)
	if err != nil {
		return nil, err
	}
	l2, err := New(cfg.L2)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{cfg: cfg, l1: l1, l2: l2}, nil
}

// MustHierarchy is NewHierarchy for known-good configurations.
func MustHierarchy(cfg HierarchyConfig) *Hierarchy {
	h, err := NewHierarchy(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// Access performs a data access and returns the satisfying level and
// the additional latency beyond the L1 pipeline stages, in FO4. L1
// demand misses trigger the next-line prefetcher, if configured.
func (h *Hierarchy) Access(addr uint64) (Level, float64) {
	if h.l1.Access(addr) {
		return L1, 0
	}
	h.prefetch(addr)
	if h.l2.Access(addr) {
		return L2, h.cfg.L2LatencyFO4
	}
	return Memory, h.cfg.MemLatencyFO4
}

// prefetch installs the lines following addr into both levels.
func (h *Hierarchy) prefetch(addr uint64) {
	line := uint64(h.cfg.L1.LineBytes)
	for i := 1; i <= h.cfg.PrefetchDegree; i++ {
		next := addr + uint64(i)*line
		h.l1.Install(next)
		h.l2.Install(next)
	}
}

// L1Stats and L2Stats expose per-level traffic counters.
func (h *Hierarchy) L1Stats() Stats { return h.l1.Stats() }

// L2Stats returns the L2 traffic counters.
func (h *Hierarchy) L2Stats() Stats { return h.l2.Stats() }
