// Package sweep is a content-addressed result cache for parameter
// studies: each sweep point's rendered result cells are stored under a
// key hashed from everything that determines them (code version,
// canonical spec, row index, seed, mode). A 10k-point study can then be
// sharded across processes, interrupted, and resumed — whoever computes a
// point first persists it, and a rerun assembles the full table from
// cached rows byte-identically to a cold run.
//
// # Segments
//
// A cache is a directory of append-only segment files. Every Cache that
// writes owns one segment, created exclusively (O_EXCL) on its first Put
// and named seg-<creation time>-<random>.jsonl, so names sort in creation
// order. A row is one newline-terminated JSON line
//
//	{"key":"<hex key>","cells":["80","same-rack","92.327"]}
//
// appended with a single write. Put then reads the line back from its
// offset and decodes it, and only then indexes it, so every cell Get
// serves has been through the on-disk encoding. A Put that fails retires
// its segment and the next Put starts a new one: nothing is ever appended
// after a failed write, so a torn line can only be a segment's last line.
//
// # What a Cache sees
//
// Open indexes every complete line of every segment, segments in creation
// order and lines in file order; a later line for the same key wins. Get
// and Len are served from that index, so a Cache sees the rows that were
// on disk when it was opened, plus its own Puts. Rows other Caches or
// processes append afterwards need a fresh Open.
//
// # Torn line versus corrupt line
//
// A segment's final line with no newline is an unfinished write (its
// writer was killed mid-append) and is skipped: that row is simply
// recomputed. A complete line that does not decode is corruption, and
// Open fails with an error naming the segment rather than treating its
// rows as misses — silently recomputing would mask the damage.
//
// Files that are not segments are ignored. In particular, rows of the
// earlier one-file-per-row layout are not read; they are recomputed.
package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"
)

// Key hashes the parts that determine one cached result into a stable
// content address (a hex SHA-256). Parts are length-prefixed so that
// ("ab","c") and ("a","bc") cannot collide.
func Key(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Segment file names: segPrefix, a zero-padded creation time in Unix
// nanoseconds, a random suffix, segSuffix.
const (
	segPrefix = "seg-"
	segSuffix = ".jsonl"
)

// line is one cached row as a segment stores it.
type line struct {
	Key   string   `json:"key"`
	Cells []string `json:"cells"`
}

// decodeLine parses one complete segment line, without its newline.
func decodeLine(b []byte) (line, error) {
	var l line
	if err := json.Unmarshal(b, &l); err != nil {
		return l, err
	}
	if l.Key == "" {
		return l, errors.New("line has no key")
	}
	return l, nil
}

// Cache is a directory of cached sweep rows in append-only segments (see
// the package doc). It is safe for concurrent use by many goroutines, and
// any number of processes may write one directory at once: each Cache
// appends only to its own segment.
type Cache struct {
	dir string

	mu   sync.Mutex
	rows map[string][]string
	seg  *os.File // this Cache's segment; nil before its first Put and after a failed one
	off  int64    // where the next line goes in seg
}

// Open creates (if needed) the cache rooted at dir and indexes every row
// its segments hold. A corrupt segment line is an error naming the
// segment.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: open cache: %w", err)
	}
	entries, err := os.ReadDir(dir) // sorted by name, so by creation time
	if err != nil {
		return nil, fmt.Errorf("sweep: open cache: %w", err)
	}
	c := &Cache{dir: dir, rows: make(map[string][]string)}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		if err := c.load(filepath.Join(dir, name)); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// load indexes the complete lines of one segment.
func (c *Cache) load(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("sweep: open cache: %w", err)
	}
	for n := 1; ; n++ {
		text, rest, complete := bytes.Cut(b, []byte{'\n'})
		if !complete {
			return nil // end of segment, or an unfinished last write
		}
		l, err := decodeLine(text)
		if err != nil {
			return fmt.Errorf("sweep: segment %s line %d is corrupt (delete the segment to recompute its rows): %w",
				path, n, err)
		}
		c.rows[l.Key] = l.Cells
		b = rest
	}
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// Get returns the cached cells for key, with ok=false on a miss. It is
// served from the index, so it sees the rows on disk when the Cache was
// opened plus the Cache's own Puts.
func (c *Cache) Get(key string) (cells []string, ok bool, err error) {
	c.mu.Lock()
	cells, ok = c.rows[key]
	c.mu.Unlock()
	return slices.Clone(cells), ok, nil
}

// Put appends the cells for key to this Cache's segment, reads the line
// back, and indexes what it read. A failed Put retires the segment.
func (c *Cache) Put(key string, cells []string) error {
	b, err := json.Marshal(line{Key: key, Cells: cells})
	if err != nil {
		return fmt.Errorf("sweep: encode %s: %w", key, err)
	}
	b = append(b, '\n')

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.seg == nil {
		pattern := fmt.Sprintf("%s%020d-*%s", segPrefix, time.Now().UnixNano(), segSuffix)
		f, err := os.CreateTemp(c.dir, pattern)
		if err != nil {
			return fmt.Errorf("sweep: put %s: %w", key, err)
		}
		c.seg, c.off = f, 0
	}
	stored, err := c.appendLine(key, b)
	if err != nil {
		c.seg.Close()
		c.seg = nil
		return fmt.Errorf("sweep: put %s: %w", key, err)
	}
	c.rows[key] = stored
	return nil
}

// appendLine writes b, key's newline-terminated line, at the end of the
// segment in one write, then reads it back from its offset, decodes it,
// and returns the cells it holds.
func (c *Cache) appendLine(key string, b []byte) ([]string, error) {
	if _, err := c.seg.Write(b); err != nil {
		return nil, err
	}
	// Read back into b: a short read fails, so on success every byte of b
	// came from the file.
	if _, err := c.seg.ReadAt(b, c.off); err != nil {
		return nil, fmt.Errorf("read back from %s: %w", c.seg.Name(), err)
	}
	c.off += int64(len(b))
	text, ok := bytes.CutSuffix(b, []byte{'\n'})
	if !ok {
		return nil, fmt.Errorf("read back from %s: line is not terminated", c.seg.Name())
	}
	l, err := decodeLine(text)
	if err == nil && l.Key != key {
		err = fmt.Errorf("key %s", l.Key)
	}
	if err != nil {
		return nil, fmt.Errorf("read back from %s: %w", c.seg.Name(), err)
	}
	return l.Cells, nil
}

// Len counts the rows the Cache can see (distinct keys in its index).
func (c *Cache) Len() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.rows), nil
}
