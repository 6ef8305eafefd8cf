package resultcache

import (
	"encoding/binary"
	"hash/crc32"

	"repro/internal/pipeline"
)

// An entry file is one fixed-width header and a payload, little-endian:
//
//	offset  size  field
//	0       6     magic "RCACHE"
//	6       2     SchemaVersion
//	8       4     CRC-32C (Castagnoli) of the payload
//	12      4     payload length in bytes
//	16      n     payload: the full Key, then the pipeline.ResultData
//
// The payload holds every field in declaration order: integers as
// 8-byte words, strings and slices as a 4-byte length and then their
// contents. The encoding is canonical — a payload that decodes
// re-encodes to the same bytes — so a decoder that accepts only what
// the encoder writes can reject every other input.
const (
	entryMagic  = "RCACHE"
	headerBytes = 16
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeEntry renders the entry file for key and the measurements d.
func encodeEntry(key Key, d pipeline.ResultData) []byte {
	w := walker{b: make([]byte, headerBytes, 1024)}
	w.key(&key)
	w.result(&d)
	seal(w.b)
	return w.b
}

// seal fills in the header of an entry whose payload follows it.
func seal(entry []byte) {
	payload := entry[headerBytes:]
	copy(entry, entryMagic)
	binary.LittleEndian.PutUint16(entry[6:], SchemaVersion)
	binary.LittleEndian.PutUint32(entry[8:], crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.PutUint32(entry[12:], uint32(len(payload)))
}

// decodeEntry verifies an entry file and decodes its measurements into
// d. It reports false when the header, checksum or length is wrong, when
// the payload does not decode exactly, or when the embedded key is not
// key: a 64-bit fingerprint collision or a file copied in by hand reads
// as a miss, never as another key's result. On false, d is garbage.
func decodeEntry(raw []byte, key Key, d *pipeline.ResultData) bool {
	if len(raw) < headerBytes || string(raw[:6]) != entryMagic ||
		binary.LittleEndian.Uint16(raw[6:]) != SchemaVersion {
		return false
	}
	payload := raw[headerBytes:]
	if binary.LittleEndian.Uint32(raw[12:]) != uint32(len(payload)) ||
		binary.LittleEndian.Uint32(raw[8:]) != crc32.Checksum(payload, castagnoli) {
		return false
	}
	w := walker{b: payload, decode: true}
	// Decoding over a copy of the wanted key allocates a string only
	// for a field that differs.
	got := key
	if w.key(&got); w.bad || got != key {
		return false
	}
	w.result(d)
	return !w.bad && len(w.b) == 0
}

// walker visits every field of an entry's payload in layout order,
// appending each to b or, when decoding, reading it from b. One walk
// serves both directions, so the encoder and the decoder cannot
// disagree on the layout. When decoding, the first short read or
// invalid field sets bad and every later read yields zero.
type walker struct {
	b      []byte
	decode bool
	bad    bool
}

// take consumes the next n bytes, or returns nil once the payload is
// exhausted.
func (w *walker) take(n int) []byte {
	if w.bad || n < 0 || n > len(w.b) {
		w.bad = true
		return nil
	}
	p := w.b[:n:n]
	w.b = w.b[n:]
	return p
}

func (w *walker) word(p *uint64) {
	if !w.decode {
		w.b = binary.LittleEndian.AppendUint64(w.b, *p)
	} else if q := w.take(8); q != nil {
		*p = binary.LittleEndian.Uint64(q)
	}
}

func (w *walker) int(p *int) {
	u := uint64(int64(*p))
	w.word(&u)
	*p = int(int64(u))
}

// length visits the element count n of a string or slice whose
// elements take size bytes each. Decoding, it returns the stored count
// after checking that the payload can hold that many elements, so a
// damaged length never causes a huge allocation.
func (w *walker) length(n, size int) int {
	if !w.decode {
		w.b = binary.LittleEndian.AppendUint32(w.b, uint32(n))
		return n
	}
	q := w.take(4)
	if q == nil {
		return 0
	}
	if m := binary.LittleEndian.Uint32(q); uint64(m) <= uint64(len(w.b)/size) {
		return int(m)
	}
	w.bad = true
	return 0
}

// str visits a string; decoding, it keeps *p, without allocating,
// when the stored bytes equal it.
func (w *walker) str(p *string) {
	n := w.length(len(*p), 1)
	if !w.decode {
		w.b = append(w.b, *p...)
	} else if q := w.take(n); q != nil && string(q) != *p {
		*p = string(q)
	}
}

func (w *walker) words(s []uint64) {
	for i := range s {
		w.word(&s[i])
	}
}

func (w *walker) key(k *Key) {
	w.str(&k.ConfigHash)
	w.str(&k.PowerHash)
	w.str(&k.WorkloadHash)
	w.int(&k.Depth)
	w.int(&k.Instructions)
	w.int(&k.Warmup)
}

// sampleBytes is the encoded size of one pipeline.ActivitySample.
const sampleBytes = 8 * (2 + 2*pipeline.NumUnits)

func (w *walker) result(r *pipeline.ResultData) {
	w.word(&r.Instructions)
	w.word(&r.Cycles)
	w.word(&r.IssueCycles)
	if n := w.length(len(r.IssueHist), 8); w.decode && n > 0 {
		r.IssueHist = make([]uint64, n)
	}
	w.words(r.IssueHist)
	w.words(r.StallCycles[:])
	w.words(r.CycleBudget[:])
	h := &r.Hazards
	for _, p := range []*uint64{&h.BranchMispredicts, &h.LoadL2Hits, &h.LoadMemAccesses,
		&h.DepEpisodes, &h.FPEpisodes, &h.AgenEpisodes,
		&r.Branches, &r.TakenBranches, &r.PredictorCorrect,
		&r.LoadCount, &r.RXCount, &r.StoreCount,
		&r.L1Misses, &r.ICacheMisses, &r.BTBMisses} {
		w.word(p)
	}
	w.words(r.UnitActive[:])
	w.words(r.UnitOps[:])
	if n := w.length(len(r.Samples), sampleBytes); w.decode && n > 0 {
		r.Samples = make([]pipeline.ActivitySample, n)
	}
	for i := range r.Samples {
		s := &r.Samples[i]
		w.word(&s.Cycle)
		w.words(s.UnitActive[:])
		w.words(s.UnitOps[:])
		w.word(&s.Retired)
	}
	w.int(&r.MaxWindowOccupied)
}
