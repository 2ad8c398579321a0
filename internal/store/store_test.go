package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// payload is a stand-in for the service's result documents.
type payload struct {
	Name  string    `json:"name"`
	Score float64   `json:"score"`
	Xs    []float64 `json:"xs,omitempty"`
}

// TestMemoryLRUOrder pins the eviction order: least recently *used*, not
// least recently inserted.
func TestMemoryLRUOrder(t *testing.T) {
	m := NewMemory[int](3)
	for i, k := range []string{"a", "b", "c"} {
		if err := m.Put(k, i); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a: order (MRU→LRU) becomes a, c, b.
	if _, ok := m.Get("a"); !ok {
		t.Fatal("a missing")
	}
	m.Put("d", 3) // evicts b
	if _, ok := m.Get("b"); ok {
		t.Fatal("b survived past capacity (wrong eviction order)")
	}
	for _, k := range []string{"c", "a", "d"} {
		if _, ok := m.Get(k); !ok {
			t.Fatalf("%s evicted, want b evicted", k)
		}
	}
	// One more insert evicts in LRU order: c (a and d were read after it).
	m.Put("e", 4)
	if _, ok := m.Get("c"); ok {
		t.Fatal("c survived, want c evicted after a/d were touched")
	}
	if got := m.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
}

// TestMemoryPutRefresh: re-putting an existing key replaces the value in
// place, keeps the entry count, and marks it most recently used.
func TestMemoryPutRefresh(t *testing.T) {
	m := NewMemory[string](2)
	m.Put("a", "old")
	m.Put("b", "x")
	m.Put("a", "new") // refresh, not insert
	if got := m.Len(); got != 2 {
		t.Fatalf("Len after refresh = %d, want 2", got)
	}
	if v, _ := m.Get("a"); v != "new" {
		t.Fatalf("refreshed value = %q, want new", v)
	}
	m.Put("c", "y") // evicts b: the refresh moved a to the front
	if _, ok := m.Get("b"); ok {
		t.Fatal("refresh did not move the entry to the front")
	}
	if _, ok := m.Get("a"); !ok {
		t.Fatal("refreshed entry evicted")
	}
}

// TestMemoryClose: Close empties the store.
func TestMemoryClose(t *testing.T) {
	m := NewMemory[int](4)
	m.Put("a", 1)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 0 {
		t.Fatal("Close left entries behind")
	}
}

// TestDiskRoundTripAndRestart is the durability loop: entries written by
// one Disk instance are served, byte-equal, by a fresh instance over the
// same directory — the property the serving layer's restart story rests on.
func TestDiskRoundTripAndRestart(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk[*payload](dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{
		"aa00ff@1", "aa00ff@2", // same shard, different seed
		"bb11ee@1", // different shard
		"k",        // short key: fallback shard
	}
	for i, k := range keys {
		if err := d.Put(k, &payload{Name: k, Score: float64(i), Xs: []float64{1, 2}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Len(); got != len(keys) {
		t.Fatalf("Len = %d, want %d", got, len(keys))
	}
	// Overwrite is a refresh, not a new entry.
	if err := d.Put("aa00ff@1", &payload{Name: "aa00ff@1", Score: 99}); err != nil {
		t.Fatal(err)
	}
	if got := d.Len(); got != len(keys) {
		t.Fatalf("Len after overwrite = %d, want %d", got, len(keys))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh instance over the same directory serves everything.
	d2, err := OpenDisk[*payload](dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.Len(); got != len(keys) {
		t.Fatalf("reopened Len = %d, want %d", got, len(keys))
	}
	v, ok := d2.Get("aa00ff@1")
	if !ok || v.Score != 99 {
		t.Fatalf("reopened Get = %+v %v, want the overwritten entry", v, ok)
	}
	if v, ok := d2.Get("bb11ee@1"); !ok || v.Name != "bb11ee@1" || len(v.Xs) != 2 {
		t.Fatalf("reopened Get(bb11ee@1) = %+v %v", v, ok)
	}
	if _, ok := d2.Get("absent@0"); ok {
		t.Fatal("missing key reported present")
	}
}

// TestDiskCorruptEntryIsAMiss: a torn or hand-mangled entry degrades to a
// cache miss, counted once as a read error, and is removed, so the slot heals
// on the next Put.
func TestDiskCorruptEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk[*payload](dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("aa@1", &payload{Name: "good"}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "aa", "aa@1.json")
	if err := os.WriteFile(path, []byte(`{"name": "torn`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get("aa@1"); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry not removed: %v", err)
	}
	if got := d.Len(); got != 0 {
		t.Fatalf("Len after corrupt removal = %d, want 0", got)
	}
	if _, ok := d.Get("aa@1"); ok || d.ReadErrors() != 1 {
		t.Fatalf("a missing entry after the corrupt one: hit %v, read errors %d, want a miss and 1", ok, d.ReadErrors())
	}
	// The slot heals.
	if err := d.Put("aa@1", &payload{Name: "fresh"}); err != nil {
		t.Fatal(err)
	}
	if v, ok := d.Get("aa@1"); !ok || v.Name != "fresh" {
		t.Fatalf("healed slot = %+v %v", v, ok)
	}
}

// TestDiskAtomicWriteLeavesNoTemp: the temp file never survives a Put.
func TestDiskAtomicWriteLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk[*payload](dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("aa@1", &payload{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	var leftovers []string
	_ = filepath.WalkDir(dir, func(path string, de os.DirEntry, err error) error {
		if err == nil && !de.IsDir() && strings.HasSuffix(path, ".tmp") {
			leftovers = append(leftovers, path)
		}
		return nil
	})
	if len(leftovers) > 0 {
		t.Fatalf("temp files left behind: %v", leftovers)
	}
	// A reopened store ignores stray non-entry files entirely.
	if err := os.WriteFile(filepath.Join(dir, "aa", "stray.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDisk[*payload](dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.Len(); got != 1 {
		t.Fatalf("reopened Len with stray temp = %d, want 1", got)
	}
}

// TestDiskRejectsBadKeys: keys that could escape the shard tree fail.
func TestDiskRejectsBadKeys(t *testing.T) {
	d, err := OpenDisk[*payload](t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"", "a/b", `a\b`, "..", "."} {
		if err := d.Put(k, &payload{}); err == nil {
			t.Fatalf("Put(%q) accepted", k)
		}
		if _, ok := d.Get(k); ok {
			t.Fatalf("Get(%q) hit", k)
		}
	}
}

// TestOpenDiskErrors: an unusable root is reported at open time.
func TestOpenDiskErrors(t *testing.T) {
	if _, err := OpenDisk[*payload](""); err == nil {
		t.Fatal("empty directory accepted")
	}
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk[*payload](file); err == nil {
		t.Fatal("file root accepted")
	}
}

// TestStoreInterfaceCompliance: both implementations satisfy Store.
func TestStoreInterfaceCompliance(t *testing.T) {
	var _ Store[*payload] = NewMemory[*payload](1)
	d, err := OpenDisk[*payload](t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var _ Store[*payload] = d
}
