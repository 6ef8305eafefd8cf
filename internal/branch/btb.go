package branch

import (
	"fmt"
	"strconv"
)

// BTB is a set-associative branch target buffer with true-LRU
// replacement. The front end needs the target of a predicted-taken
// branch at fetch time; a BTB miss means the redirect must wait for
// decode to compute the target, costing extra fetch bubbles even when
// the direction prediction was correct.
type BTB struct {
	ways     int
	mask     uint64
	tagShift uint
	tags     []uint64
	targets  []uint64
	valid    []bool
	age      []uint64
	clock    uint64

	lookups uint64
	hits    uint64
}

// BTBConfig describes a BTB's geometry by value. The zero value
// describes no BTB.
type BTBConfig struct {
	Entries int // total entries, a power of two
	Ways    int // associativity, dividing Entries into a power-of-two set count
}

// Validate reports a geometry NewBTB would reject.
func (c BTBConfig) Validate() error {
	if c.Entries <= 0 || c.Entries&(c.Entries-1) != 0 {
		return fmt.Errorf("branch: BTB entries %d not a positive power of two", c.Entries)
	}
	if c.Ways <= 0 || c.Entries%c.Ways != 0 {
		return fmt.Errorf("branch: BTB ways %d incompatible with %d entries", c.Ways, c.Entries)
	}
	if sets := c.Entries / c.Ways; sets&(sets-1) != 0 {
		return fmt.Errorf("branch: BTB set count %d not a power of two", sets)
	}
	return nil
}

// AppendFingerprint appends a description of the geometry (never
// contents) for run manifests and cache keys, e.g. "btb/512/4".
func (c BTBConfig) AppendFingerprint(b []byte) []byte {
	b = strconv.AppendInt(append(b, "btb/"...), int64(c.Entries), 10)
	return strconv.AppendInt(append(b, '/'), int64(c.Ways), 10)
}

// NewBTB builds a BTB with the given number of entries (a power of
// two) and associativity.
func NewBTB(entries, ways int) (*BTB, error) {
	if err := (BTBConfig{Entries: entries, Ways: ways}).Validate(); err != nil {
		return nil, err
	}
	sets := entries / ways
	return &BTB{
		ways:     ways,
		mask:     uint64(sets - 1),
		tagShift: uint(trailingZeros(sets)),
		tags:     make([]uint64, entries),
		targets:  make([]uint64, entries),
		valid:    make([]bool, entries),
		age:      make([]uint64, entries),
	}, nil
}

// MustBTB is NewBTB for known-good geometries.
func MustBTB(entries, ways int) *BTB {
	b, err := NewBTB(entries, ways)
	if err != nil {
		panic(err)
	}
	return b
}

//lint:hotpath per-branch BTB indexing; must not allocate
func (b *BTB) index(pc uint64) (set int, tag uint64) {
	line := pc >> 2
	return int(line & b.mask), line >> b.tagShift
}

// Lookup returns the predicted target for the branch at pc, and
// whether the BTB holds an entry for it.
func (b *BTB) Lookup(pc uint64) (target uint64, hit bool) {
	b.clock++
	b.lookups++
	set, tag := b.index(pc)
	base := set * b.ways
	for w := 0; w < b.ways; w++ {
		i := base + w
		if b.valid[i] && b.tags[i] == tag {
			b.age[i] = b.clock
			b.hits++
			return b.targets[i], true
		}
	}
	return 0, false
}

// Update installs or refreshes the branch's target.
func (b *BTB) Update(pc, target uint64) {
	b.clock++
	set, tag := b.index(pc)
	base := set * b.ways
	lru := base
	for w := 0; w < b.ways; w++ {
		i := base + w
		if b.valid[i] && b.tags[i] == tag {
			b.targets[i] = target
			b.age[i] = b.clock
			return
		}
		if b.age[i] < b.age[lru] {
			lru = i
		}
	}
	b.valid[lru] = true
	b.tags[lru] = tag
	b.targets[lru] = target
	b.age[lru] = b.clock
}

// BTBStats counts BTB traffic.
type BTBStats struct {
	Lookups uint64
	Hits    uint64
}

// Stats returns a copy of the lookup/hit counters.
func (b *BTB) Stats() BTBStats { return BTBStats{Lookups: b.lookups, Hits: b.hits} }

func trailingZeros(n int) int {
	z := 0
	for n > 1 {
		n >>= 1
		z++
	}
	return z
}
