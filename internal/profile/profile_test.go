package profile

import (
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCaptureWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	c, err := Start(filepath.Join(dir, "prof"))
	if err != nil {
		t.Fatal(err)
	}
	// A little work so the capture isn't entirely idle (CPU sampling may
	// still not fire in a short test; the file is written regardless).
	x := 0
	for i := 0; i < 1e6; i++ {
		x += i * i
	}
	_ = x
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	// Every capture is a gzipped pprof protobuf, the format
	// `go tool pprof` reads.
	for _, name := range []string{CPUFile, HeapFile, AllocsFile} {
		f, err := os.Open(filepath.Join(c.Dir(), name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		zr, err := gzip.NewReader(f)
		if err != nil {
			f.Close()
			t.Fatalf("%s: not gzipped: %v", name, err)
		}
		n, err := io.Copy(io.Discard, zr)
		f.Close()
		if err != nil || n == 0 {
			t.Fatalf("%s: %d bytes, err %v", name, n, err)
		}
	}
}

func TestNilCaptureStopIsNoop(t *testing.T) {
	var c *Capture
	if err := c.Stop(); err != nil {
		t.Fatalf("nil Stop = %v", err)
	}
	if c.Dir() != "" {
		t.Fatal("nil Dir not empty")
	}
}

func TestGoroutineDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dumps", "stall-1.txt")
	block := make(chan struct{})
	done := make(chan struct{})
	go func() { // a parked goroutine the dump must show
		<-block
		close(done)
	}()
	if err := GoroutineDump(path); err != nil {
		t.Fatal(err)
	}
	close(block)
	<-done
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "goroutine") || !strings.Contains(string(data), "TestGoroutineDump") {
		t.Fatalf("dump does not look like a debug=2 goroutine dump:\n%.400s", data)
	}
}
