package sweep

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestKeyIsStableAndPrefixSafe(t *testing.T) {
	if Key("a", "b") != Key("a", "b") {
		t.Fatal("Key is not deterministic")
	}
	// Length prefixing: concatenation boundaries must matter.
	if Key("ab", "c") == Key("a", "bc") {
		t.Fatal(`Key("ab","c") collides with Key("a","bc")`)
	}
	if Key("a") == Key("a", "") {
		t.Fatal("trailing empty part does not change the key")
	}
	k := Key("x")
	if len(k) != 64 || strings.ToLower(k) != k {
		t.Fatalf("Key = %q, want 64 lowercase hex chars", k)
	}
}

// mustOpen opens the cache at dir or fails the test.
func mustOpen(t *testing.T, dir string) *Cache {
	t.Helper()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// mustPut stores cells under key or fails the test.
func mustPut(t *testing.T, c *Cache, key string, cells ...string) {
	t.Helper()
	if err := c.Put(key, cells); err != nil {
		t.Fatal(err)
	}
}

// wantRow fails the test unless c serves exactly cells for key.
func wantRow(t *testing.T, c *Cache, key string, cells ...string) {
	t.Helper()
	got, ok, err := c.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get(%.8s) = ok=%v err=%v, want a hit", key, ok, err)
	}
	if strings.Join(got, "|") != strings.Join(cells, "|") {
		t.Fatalf("Get(%.8s) = %q, want %q", key, got, cells)
	}
}

// wantLen fails the test unless c sees n rows.
func wantLen(t *testing.T, c *Cache, n int) {
	t.Helper()
	if got, err := c.Len(); err != nil || got != n {
		t.Fatalf("Len = %d, %v, want %d rows", got, err, n)
	}
}

// segments lists dir's segment files and fails the test if dir holds
// anything else: a Put leaves no temporary or per-row files behind.
func segments(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), segPrefix) || !strings.HasSuffix(e.Name(), segSuffix) {
			t.Fatalf("cache directory holds %s, which is not a segment", e.Name())
		}
		segs = append(segs, filepath.Join(dir, e.Name()))
	}
	return segs
}

// appendRaw appends b to the segment at path, as another writer (or a
// fault) would.
func appendRaw(t *testing.T, path, b string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCacheRoundTrip: rows a Cache puts are served by it at once and by a
// fresh Open of the directory, from one segment and nothing else.
func TestCacheRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c := mustOpen(t, dir)
	key := Key("row")
	if _, ok, err := c.Get(key); err != nil || ok {
		t.Fatalf("empty cache Get = ok=%v err=%v, want miss", ok, err)
	}
	wantLen(t, c, 0)
	cells := []string{"80", "same-rack", "92.327", "quote \" and\nnewline"}
	mustPut(t, c, key, cells...)
	mustPut(t, c, Key("other"), "1")
	wantRow(t, c, key, cells...)
	wantLen(t, c, 2)

	// Get hands out a copy: a caller editing it cannot change the cache.
	got, _, _ := c.Get(key)
	got[0] = "edited"
	wantRow(t, c, key, cells...)

	re := mustOpen(t, dir)
	wantRow(t, re, key, cells...)
	wantRow(t, re, Key("other"), "1")
	wantLen(t, re, 2)
	if segs := segments(t, dir); len(segs) != 1 {
		t.Fatalf("one writing Cache made %d segments, want 1", len(segs))
	}
}

// TestCacheCorruptRowIsAnError: a complete line that does not decode must
// surface as an Open error naming the segment, not silently recompute —
// masking corruption would defeat the byte-identical-resume guarantee.
func TestCacheCorruptRowIsAnError(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir)
	mustPut(t, c, Key("good"), "1")
	seg := segments(t, dir)[0]
	appendRaw(t, seg, "{not json\n")
	_, err := Open(dir)
	if err == nil {
		t.Fatal("Open accepted a segment with a corrupt line")
	}
	if !strings.Contains(err.Error(), seg) || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("corrupt-line error %q does not name the segment and line", err)
	}

	// A line that is valid JSON but not a row is corrupt too.
	dir = t.TempDir()
	mustPut(t, mustOpen(t, dir), Key("good"), "1")
	appendRaw(t, segments(t, dir)[0], "{}\n")
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a line with no key")
	}
}

// TestCacheTornLastLineIsSkipped: a final line with no newline is a write
// its process never finished. Open skips it without an error and still
// serves the rows before it; later writers go to a new segment, so the
// torn line stays a last line.
func TestCacheTornLastLineIsSkipped(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir)
	mustPut(t, c, Key("a"), "1")
	mustPut(t, c, Key("b"), "2")
	appendRaw(t, segments(t, dir)[0], `{"key":"`+Key("c")+`","cells":["3`)

	re := mustOpen(t, dir)
	wantRow(t, re, Key("a"), "1")
	wantRow(t, re, Key("b"), "2")
	if _, ok, _ := re.Get(Key("c")); ok {
		t.Fatal("the torn row was served")
	}
	wantLen(t, re, 2)

	mustPut(t, re, Key("c"), "3")
	if segs := segments(t, dir); len(segs) != 2 {
		t.Fatalf("%d segments after a reopened Cache wrote, want 2", len(segs))
	}
	final := mustOpen(t, dir)
	wantRow(t, final, Key("c"), "3")
	wantLen(t, final, 3)
}

// TestCacheFailedPutRetiresSegment: once a write to a segment fails, the
// Cache never appends to that segment again, so a torn line cannot end up
// in the middle of one.
func TestCacheFailedPutRetiresSegment(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir)
	mustPut(t, c, Key("a"), "1")
	first := c.seg.Name()
	before, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}

	// Swap in a read-only handle, so the next write fails as it would on a
	// full disk.
	ro, err := os.Open(first)
	if err != nil {
		t.Fatal(err)
	}
	c.seg.Close()
	c.seg = ro
	if err := c.Put(Key("b"), []string{"2"}); err == nil {
		t.Fatal("Put on a failing segment reported success")
	}
	if c.seg != nil {
		t.Fatal("a failed Put left its segment in use")
	}
	if _, ok, _ := c.Get(Key("b")); ok {
		t.Fatal("a failed Put was indexed")
	}

	mustPut(t, c, Key("c"), "3")
	if c.seg.Name() == first {
		t.Fatal("Put after a failure appended to the retired segment")
	}
	after, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Fatalf("retired segment changed: %q -> %q", before, after)
	}
	if segs := segments(t, dir); len(segs) != 2 {
		t.Fatalf("%d segments, want the retired one and its successor", len(segs))
	}
	re := mustOpen(t, dir)
	wantRow(t, re, Key("a"), "1")
	wantRow(t, re, Key("c"), "3")
	wantLen(t, re, 2)
}

// TestCacheConcurrentWriters: two Caches on one directory, each written by
// several goroutines (as -shard-procs children and row workers do). Each
// Cache sees its own rows; a fresh Open sees every row. Runs under -race
// in ci.sh.
func TestCacheConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	caches := []*Cache{mustOpen(t, dir), mustOpen(t, dir)}
	const goroutines, rows = 6, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := caches[g%len(caches)]
			for i := 0; i < rows; i++ {
				key := Key(fmt.Sprint(g), fmt.Sprint(i))
				if err := c.Put(key, []string{fmt.Sprint(g), fmt.Sprint(i)}); err != nil {
					t.Error(err)
					return
				}
				if _, ok, err := c.Get(key); err != nil || !ok {
					t.Errorf("Get after Put: ok=%v err=%v", ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, c := range caches {
		wantLen(t, c, goroutines/len(caches)*rows)
	}
	re := mustOpen(t, dir)
	wantLen(t, re, goroutines*rows)
	for g := 0; g < goroutines; g++ {
		for i := 0; i < rows; i++ {
			wantRow(t, re, Key(fmt.Sprint(g), fmt.Sprint(i)), fmt.Sprint(g), fmt.Sprint(i))
		}
	}
	if segs := segments(t, dir); len(segs) != len(caches) {
		t.Fatalf("%d segments, want one per writing Cache", len(segs))
	}
}

// TestCachePutOverwrites: a later Put of the same key wins, in the Cache
// that made it and after a reopen, whether it went to the same segment or
// to a newer one.
func TestCachePutOverwrites(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir)
	key := Key("k")
	mustPut(t, c, key, "old")
	mustPut(t, c, key, "new")
	wantRow(t, c, key, "new")
	wantLen(t, c, 1)
	re := mustOpen(t, dir)
	wantRow(t, re, key, "new")

	mustPut(t, re, key, "newer")
	final := mustOpen(t, dir)
	wantRow(t, final, key, "newer")
	wantLen(t, final, 1)
	if segs := segments(t, dir); len(segs) != 2 {
		t.Fatalf("%d segments, want 2", len(segs))
	}
}

// TestCacheIgnoresPerRowLayout: a directory in the earlier
// one-JSON-file-per-row layout opens as an empty cache, so its rows are
// recomputed rather than read.
func TestCacheIgnoresPerRowLayout(t *testing.T) {
	dir := t.TempDir()
	key := Key("row")
	if err := os.MkdirAll(filepath.Join(dir, key[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, key[:2], key[2:]+".json"), []byte(`["1"]`), 0o644); err != nil {
		t.Fatal(err)
	}
	c := mustOpen(t, dir)
	if _, ok, err := c.Get(key); ok || err != nil {
		t.Fatalf("per-row file served: ok=%v err=%v", ok, err)
	}
	wantLen(t, c, 0)
}
