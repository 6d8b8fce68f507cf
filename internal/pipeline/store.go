// Persistent artifact storage: the Store interface the pipeline caches
// behind, and the content-addressed on-disk tier that lets a sweep warm-start
// from a previous process's artifacts.
//
// On-disk layout: one file per persisted stage artifact (opt, profile and
// select; codec.go says why only those), named
//
//	<stage>-<sha256(codec version | cumulative cache key)[:32]>.art
//
// so the codec version and the full cumulative config fingerprint are part
// of the address — a stale-version or different-config entry is simply never
// found. Each file carries a header line (magic, codec version, stage name,
// payload CRC32) ahead of the encoded payload; anything that fails header,
// CRC, or decode validation is silently treated as a miss and recomputed.
// Writes go to a temp file in the same directory and rename into place, so
// concurrent processes sharing a cache directory never observe a torn
// artifact.
package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"needle/internal/obs"
)

// Observability counters (no-ops until obs.Enable): persistent-tier
// behaviour across every DiskStore in the process.
var (
	obsDiskHits      = obs.GetCounter("pipeline.cache.disk.hits")
	obsDiskMisses    = obs.GetCounter("pipeline.cache.disk.misses")
	obsDiskWrites    = obs.GetCounter("pipeline.cache.disk.writes")
	obsDiskEvictions = obs.GetCounter("pipeline.cache.disk.evictions")
)

// Store shares cacheable stage artifacts across pipeline runs. Run consults
// the store for every cacheable stage; compute produces the artifact on a
// miss. Implementations must be safe for concurrent use and must return
// artifacts that downstream stages can treat as read-only shared state.
//
// Two tiers ship with the pipeline: Cache (in-memory, dies with the
// process) and DiskStore (memory tier plus a persistent content-addressed
// directory that later processes warm-start from).
type Store interface {
	// Do returns the artifact for key, computing it on a miss. a carries
	// the upstream artifacts a persistent tier needs to rehydrate attached
	// state (functions, analysis managers). hit reports whether any tier
	// already held the artifact.
	Do(st *Stage, a *Artifacts, key string, compute func() (any, error)) (val any, err error, hit bool)
	// Stats returns per-stage cache behaviour, keyed by stage name.
	Stats() map[string]CacheStats
}

const (
	artifactMagic = "needle-artifact"
	artifactExt   = ".art"
	// maxHeader bounds an artifact file's first line: load looks for its
	// newline no further.
	maxHeader = 128
)

// DiskStore is the two-tier persistent artifact store: an in-memory Cache
// in front of a content-addressed directory of encoded artifacts. Within a
// process it behaves exactly like a Cache (singleflight, shared rehydrated
// artifacts); across processes, a memory miss of a stage with a codec (opt,
// profile, select) is served by decoding the on-disk artifact instead of
// recomputing, which skips the instrumented profiling run entirely on a
// warm start. Stages without a codec (inline, frame) are cheaper to rerun
// than to decode and live in the memory tier only.
type DiskStore struct {
	dir      string
	maxBytes int64
	mem      *Cache

	mu   sync.Mutex
	disk map[string]*CacheStats // per-stage DiskHits/Evictions
}

// NewDiskStore opens (creating if needed) a persistent artifact store in
// dir. maxMB bounds the directory's total artifact size: after each write,
// least-recently-used artifacts are evicted until the total fits (<= 0
// means unbounded). Opening removes the files of stages without a codec,
// which an earlier build may have written and no DiskStore reads. Safe for
// concurrent use, including by concurrent processes sharing dir.
func NewDiskStore(dir string, maxMB int) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pipeline: opening artifact store: %w", err)
	}
	clearUnread(dir)
	return &DiskStore{
		dir:      dir,
		maxBytes: int64(maxMB) * 1 << 20,
		mem:      NewCache(),
		disk:     make(map[string]*CacheStats),
	}, nil
}

// clearUnread removes every <stage>-*.art file in dir whose stage has no
// codec. Failures are silent, as every other disk-tier failure is.
func clearUnread(dir string) {
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, artifactExt) {
			continue
		}
		for i := range stages {
			if st := &stages[i]; st.encode == nil && strings.HasPrefix(name, st.Name+"-") {
				os.Remove(filepath.Join(dir, name))
			}
		}
	}
}

// Dir returns the store's directory.
func (s *DiskStore) Dir() string { return s.dir }

// Do implements Store: memory tier first, then disk, then compute+persist.
func (s *DiskStore) Do(st *Stage, a *Artifacts, key string, compute func() (any, error)) (any, error, bool) {
	if st.encode == nil || st.decode == nil {
		// No codec for this stage: memory tier only.
		return s.mem.do(st.Name, key, compute)
	}
	diskHit := false
	val, err, hit := s.mem.do(st.Name, key, func() (any, error) {
		if data, ok := s.load(st.Name, key); ok {
			if out, derr := st.decode(a, data); derr == nil {
				diskHit = true
				s.noteDisk(st.Name, func(cs *CacheStats) { cs.DiskHits++ })
				obsDiskHits.Add(1)
				return out, nil
			}
			// Present but undecodable (stale layout, IR drift the version
			// bump missed, bit rot the CRC missed): fall through to a fresh
			// computation, which overwrites the entry.
		}
		obsDiskMisses.Add(1)
		out, cerr := compute()
		if cerr == nil {
			if data, eerr := st.encode(a, out); eerr == nil {
				s.save(st.Name, key, data)
			}
			// Encoding failures are not fatal: the run proceeds on the
			// in-memory artifact and later processes recompute.
		}
		return out, cerr
	})
	return val, err, hit || diskHit
}

// noteDisk updates the per-stage disk-tier stats entry under the lock.
func (s *DiskStore) noteDisk(stage string, update func(*CacheStats)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs := s.disk[stage]
	if cs == nil {
		cs = &CacheStats{}
		s.disk[stage] = cs
	}
	update(cs)
}

// Stats implements Store: the memory tier's hits/misses merged with the
// disk tier's hits and evictions.
func (s *DiskStore) Stats() map[string]CacheStats {
	out := s.mem.Stats()
	s.mu.Lock()
	defer s.mu.Unlock()
	for stage, d := range s.disk {
		cs := out[stage]
		cs.DiskHits = d.DiskHits
		cs.Evictions = d.Evictions
		out[stage] = cs
	}
	return out
}

// path returns the content address of a (stage, key) artifact. The codec
// version participates in the hash, so a version bump orphans old entries
// rather than misreading them.
func (s *DiskStore) path(stage, key string) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("v%d|%s", codecVersion, key)))
	return filepath.Join(s.dir, stage+"-"+hex.EncodeToString(sum[:])[:32]+artifactExt)
}

// header builds the artifact file's first line.
func header(stage string, payload []byte) string {
	return fmt.Sprintf("%s v%d %s crc32=%08x\n", artifactMagic, codecVersion, stage, crc32.ChecksumIEEE(payload))
}

// load reads and validates the on-disk artifact, returning ok=false on any
// problem (absent, torn, corrupt, stale) — persistent-tier misses are
// always silent.
func (s *DiskStore) load(stage, key string) ([]byte, bool) {
	path := s.path(stage, key)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	nl := strings.IndexByte(string(raw[:min(len(raw), maxHeader)]), '\n')
	if nl < 0 {
		return nil, false
	}
	payload := raw[nl+1:]
	if string(raw[:nl+1]) != header(stage, payload) {
		return nil, false
	}
	// LRU bookkeeping: a hit refreshes the artifact's eviction clock.
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	return payload, true
}

// save atomically persists an encoded artifact: write to a temp file in the
// store directory, then rename into place. Failures are silent — the store
// is an accelerator, never a correctness dependency.
func (s *DiskStore) save(stage, key string, payload []byte) {
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return
	}
	_, werr := tmp.WriteString(header(stage, payload))
	if werr == nil {
		_, werr = tmp.Write(payload)
	}
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), s.path(stage, key)); err != nil {
		os.Remove(tmp.Name())
		return
	}
	obsDiskWrites.Add(1)
	s.evict()
}

// evict removes least-recently-used artifacts until the directory fits the
// size cap. Concurrent processes may race an eviction against a read; the
// loser sees a vanished file, which is an ordinary miss.
func (s *DiskStore) evict() {
	if s.maxBytes <= 0 {
		return
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	type fileInfo struct {
		name  string
		size  int64
		mtime time.Time
	}
	var files []fileInfo
	var total int64
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), artifactExt) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, fileInfo{e.Name(), info.Size(), info.ModTime()})
		total += info.Size()
	}
	if total <= s.maxBytes {
		return
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	for _, f := range files {
		if total <= s.maxBytes {
			break
		}
		if os.Remove(filepath.Join(s.dir, f.name)) != nil {
			continue
		}
		total -= f.size
		obsDiskEvictions.Add(1)
		stage := f.name
		if i := strings.IndexByte(stage, '-'); i > 0 {
			stage = stage[:i]
		}
		s.noteDisk(stage, func(cs *CacheStats) { cs.Evictions++ })
	}
}

// Len returns the number of artifacts resident in the memory tier.
func (s *DiskStore) Len() int { return s.mem.Len() }

// DiskLen returns the number of artifacts currently on disk.
func (s *DiskStore) DiskLen() int {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), artifactExt) {
			n++
		}
	}
	return n
}
