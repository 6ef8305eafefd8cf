package core

import (
	"testing"

	"repro/internal/resultcache"
	"repro/internal/workload"
)

// BenchmarkRepeatStudyFromDisk times a repeat of a single-workload
// study whose 24 design points are all on disk: per point, the key is
// rendered, the entry read and decoded and the point priced. The cache
// is reopened after the study that wrote it, with its memory front off,
// so every iteration reads every entry from disk, as the first repeat
// of a study in a new process does.
func BenchmarkRepeatStudyFromDisk(b *testing.B) {
	dir := b.TempDir()
	cache, err := resultcache.Open(resultcache.Options{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	cfg := StudyConfig{Instructions: 3000, Warmup: -1, Parallelism: 2, Cache: cache}
	prof := workload.Representative(workload.SPECInt)
	if _, err := RunSweep(cfg, prof); err != nil {
		b.Fatal(err)
	}
	if cfg.Cache, err = resultcache.Open(resultcache.Options{Dir: dir, MaxMemEntries: -1}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSweep(cfg, prof); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := cfg.Cache.Stats(); st.Misses != 0 || st.Hits != uint64(b.N*len(DefaultDepths())) {
		b.Fatalf("repeat studies were not served from disk: %+v", st)
	}
}
