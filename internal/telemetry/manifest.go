package telemetry

import (
	"runtime"
	"time"
)

// Manifest records the provenance of one simulation or experiment
// output: enough to re-run it bit-identically and to trust a number
// found in a dump weeks later. Attach one to every Result and every
// exported metrics/trace file.
type Manifest struct {
	// Tool names the producing command or package.
	Tool string `json:"tool,omitempty"`
	// ConfigHash is a stable FNV-1a fingerprint of the machine
	// configuration (see Fingerprint).
	ConfigHash string `json:"config_hash,omitempty"`
	// Params holds free-form run parameters: workload, depth, seed,
	// instruction counts — whatever the producer knows.
	Params map[string]string `json:"params,omitempty"`
	// StartedAt is the run's wall-clock start in RFC 3339 format.
	StartedAt string `json:"started_at,omitempty"`
	// WallTimeSec is the run's elapsed wall time in seconds.
	WallTimeSec float64 `json:"wall_time_sec,omitempty"`
	// GoVersion, OS and Arch identify the producing toolchain.
	GoVersion string `json:"go_version"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	NumCPU    int    `json:"num_cpu"`
}

// NewManifest returns a manifest stamped with the current environment
// and start time.
func NewManifest(tool string) Manifest {
	return Manifest{
		Tool:      tool,
		StartedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
}

// SetParam records one named run parameter, allocating the map on
// first use.
func (m *Manifest) SetParam(key, value string) {
	if m.Params == nil {
		m.Params = make(map[string]string)
	}
	m.Params[key] = value
}

// Finish records the elapsed wall time since start.
func (m *Manifest) Finish(start time.Time) {
	m.WallTimeSec = time.Since(start).Seconds()
}

// taggedManifest is the JSONL representation: the manifest fields plus
// a type tag so readers can distinguish it from metric lines.
type taggedManifest struct {
	Type string `json:"type"`
	Manifest
}

func (m *Manifest) tagged() taggedManifest {
	return taggedManifest{Type: "manifest", Manifest: *m}
}

// Fingerprint hashes the given parts into a stable 64-bit FNV-1a hex
// string. Producers feed it a canonical rendering of their
// configuration; equal configurations hash equal across runs and
// builds.
func Fingerprint(parts ...string) string {
	h := NewFingerprintHash()
	for _, p := range parts {
		h = FingerprintHash(foldPart(uint64(h), p))
	}
	return h.String()
}

// FingerprintHash is Fingerprint's hash state, fed one part at a time.
// It lets a producer render each part into a reused buffer instead of a
// string: parts folded with Part hash exactly as the same parts passed
// to Fingerprint.
type FingerprintHash uint64

// NewFingerprintHash returns the state of a hash of no parts.
func NewFingerprintHash() FingerprintHash { return fnvOffset64 }

// Part folds one part into the hash.
func (h *FingerprintHash) Part(p []byte) { *h = FingerprintHash(foldPart(uint64(*h), p)) }

// String renders the hash as 16 lower-case hex digits.
func (h FingerprintHash) String() string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = digits[h&0xF]
		h >>= 4
	}
	return string(b[:])
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// foldPart folds one part's bytes and then a separator into h, so
// ("ab","c") ≠ ("a","bc").
func foldPart[T string | []byte](h uint64, p T) uint64 {
	for i := 0; i < len(p); i++ {
		h ^= uint64(p[i])
		h *= fnvPrime64
	}
	h ^= 0xFF
	return h * fnvPrime64
}
