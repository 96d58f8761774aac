package dse

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
)

// cacheEntry is one memoized evaluation result.
type cacheEntry struct {
	Cost float64            `json:"cost"`
	Aux  map[string]float64 `json:"aux,omitempty"`
}

// CacheStats is the hit/miss accounting of one cache since creation.
type CacheStats struct {
	Hits   int // evaluations answered from memory or disk
	Misses int // evaluations that had to run
}

// HitRate returns Hits / (Hits + Misses), 0 for an unused cache.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Cache memoizes evaluation results under content-hash keys: the key
// string (canonically serialized configuration, see Canonical/HashSet)
// is hashed with SHA-256 and the entry persisted as <hash>.json under
// the cache directory, so identical configurations are free across
// process runs. A Cache with an empty directory is memory-only. Safe for
// concurrent use; hit/miss accounting via Stats.
type Cache struct {
	mu      sync.Mutex
	dir     string
	mem     map[string]cacheEntry
	memB    map[string][]byte // opaque-bytes entries (GetBytes/PutBytes)
	hits    int
	misses  int
	saveErr error // first persist failure (diagnosed, not fatal)
}

// NewCache opens (creating if needed) a cache directory; dir "" makes a
// memory-only cache.
func NewCache(dir string) (*Cache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("dse: cache dir: %w", err)
		}
	}
	return &Cache{dir: dir, mem: map[string]cacheEntry{}, memB: map[string][]byte{}}, nil
}

// Stats returns the hit/miss counts accumulated so far.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses}
}

// Err returns the first persistence failure, if any. Lookups fall back
// to evaluation on read errors and keep working in memory on write
// errors, so a bad cache directory degrades to a cold cache rather than
// failing the sweep.
func (c *Cache) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.saveErr
}

// path maps a key to its file: sha256(key).json under the cache dir.
func (c *Cache) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:])+".json")
}

// lookup returns the memoized entry for key, consulting memory first,
// then disk. Accounting: every call is a hit or a miss.
func (c *Cache) lookup(key string) (cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.mem[key]; ok {
		c.hits++
		return e, true
	}
	if c.dir != "" {
		if data, err := os.ReadFile(c.path(key)); err == nil {
			var e cacheEntry
			if err := json.Unmarshal(data, &e); err == nil {
				c.mem[key] = e
				c.hits++
				return e, true
			}
		}
	}
	c.misses++
	return cacheEntry{}, false
}

// binMagic frames persisted opaque-bytes entries: "dsebin1\n" + 4-byte
// little-endian CRC-32 (IEEE) of the payload + payload. The checksum is
// what lets a torn or corrupted entry degrade to a miss (re-evaluation)
// instead of serving wrong bytes — the same fail-closed contract the
// JSON entries get from Unmarshal.
const binMagic = "dsebin1\n"

// GetBytes looks up an opaque result payload stored under key —
// consulting memory first, then <sha256(key)>.bin under the cache
// directory. Every call is accounted as a hit or a miss in Stats, like
// the structured lookups; a missing, torn or checksum-corrupt entry is a
// miss. The returned slice must not be mutated by the caller.
func (c *Cache) GetBytes(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.memB[key]; ok {
		c.hits++
		return b, true
	}
	if c.dir != "" {
		if data, err := os.ReadFile(c.binPath(key)); err == nil {
			if b, ok := decodeBin(data); ok {
				c.memB[key] = b
				c.hits++
				return b, true
			}
		}
	}
	c.misses++
	return nil, false
}

// PutBytes stores an opaque result payload under key, persisting it
// (checksummed, via a temp-file rename so readers never observe a torn
// entry) when the cache has a directory. A write failure is returned and
// also recorded in Err; the in-memory entry still serves this process.
func (c *Cache) PutBytes(key string, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp := append([]byte(nil), data...)
	c.memB[key] = cp
	if c.dir == "" {
		return nil
	}
	path := c.binPath(key)
	tmp := path + ".tmp"
	err := os.WriteFile(tmp, encodeBin(cp), 0o644)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		err = fmt.Errorf("dse: cache persist: %w", err)
		if c.saveErr == nil {
			c.saveErr = err
		}
	}
	return err
}

// binPath maps a key to its opaque-bytes file: sha256(key).bin.
func (c *Cache) binPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:])+".bin")
}

func encodeBin(payload []byte) []byte {
	out := make([]byte, 0, len(binMagic)+4+len(payload))
	out = append(out, binMagic...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

func decodeBin(data []byte) ([]byte, bool) {
	if len(data) < len(binMagic)+4 || string(data[:len(binMagic)]) != binMagic {
		return nil, false
	}
	want := binary.LittleEndian.Uint32(data[len(binMagic):])
	payload := data[len(binMagic)+4:]
	if crc32.ChecksumIEEE(payload) != want {
		return nil, false
	}
	return payload, true
}

// store memoizes a successful evaluation, persisting it when the cache
// has a directory. Write failures are recorded in Err, not propagated:
// the in-memory entry still serves the current process.
func (c *Cache) store(key string, e cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mem[key] = e
	if c.dir == "" {
		return
	}
	data, err := json.Marshal(e)
	if err == nil {
		err = os.WriteFile(c.path(key), data, 0o644)
	}
	if err != nil && c.saveErr == nil {
		c.saveErr = fmt.Errorf("dse: cache persist: %w", err)
	}
}
