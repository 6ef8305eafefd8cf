// Package profile wraps runtime/pprof into a one-call capture for the
// CLIs: Start begins a CPU profile into a directory, and Stop finishes
// it and snapshots heap and allocation profiles alongside. The files
// are standard pprof protobufs; rank hot functions with
// `go tool pprof -top <dir>/cpu.pprof`.
package profile

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

// File names written into the capture directory.
const (
	CPUFile    = "cpu.pprof"
	HeapFile   = "heap.pprof"
	AllocsFile = "allocs.pprof"
)

// Capture is an in-progress profiling session. A nil *Capture is the
// disabled state: Stop is a no-op, so CLIs can call it unconditionally.
type Capture struct {
	dir string
	cpu *os.File
}

// Start creates dir (if needed) and begins a CPU profile there.
func Start(dir string) (*Capture, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, CPUFile))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("profile: %w", err)
	}
	return &Capture{dir: dir, cpu: f}, nil
}

// Stop finishes the CPU profile and snapshots the heap and allocation
// profiles. Safe on a nil Capture.
func (c *Capture) Stop() error {
	if c == nil {
		return nil
	}
	pprof.StopCPUProfile()
	if err := c.cpu.Close(); err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	// An up-to-date heap profile wants a GC first (the "heap" profile
	// reports live objects as of the last collection).
	runtime.GC()
	for _, p := range []string{"heap", "allocs"} {
		f, err := os.Create(filepath.Join(c.dir, p+".pprof"))
		if err != nil {
			return fmt.Errorf("profile: %w", err)
		}
		if err := writeLookup(f, p, 0); err != nil {
			return err
		}
	}
	return nil
}

// Dir returns the capture directory ("" on a nil Capture).
func (c *Capture) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// writeLookup writes the named runtime profile to f and closes it.
func writeLookup(f *os.File, name string, debug int) error {
	werr := pprof.Lookup(name).WriteTo(f, debug)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("profile: %s: %w", name, werr)
	}
	return nil
}

// GoroutineDump writes a human-readable dump of every goroutine's
// stack (pprof "goroutine" profile at debug level 2 — the same format
// a fatal panic prints) to path, creating the parent directory if
// needed. This is the watchdog's postmortem capture: when a job
// stalls, the dump shows where every worker is blocked. The dump is
// written to a temporary file in the same directory and renamed into
// place, so a reader that sees path sees the whole dump.
func GoroutineDump(path string) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	f, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	if err := writeLookup(f, "goroutine", 2); err != nil {
		os.Remove(f.Name())
		return err
	}
	if err := os.Rename(f.Name(), path); err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("profile: %w", err)
	}
	return nil
}
