package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Disk is a persistent store: one JSON file per key under a directory
// sharded on the key's first two characters (content-addressed keys spread
// uniformly, so no shard outgrows the others). Writes are atomic — the
// entry is written to a temporary file, synced, and renamed into place —
// so a crash mid-write can never leave a torn entry visible, and a
// reopened store serves exactly the set of completed Puts. Entries that do
// not parse (truncated by an unclean shutdown, hand-edited, ...) are
// treated as absent and removed: a corrupt entry must degrade to a cache
// miss, never to a serving failure.
type Disk[V any] struct {
	mu         sync.Mutex
	dir        string
	n          int
	readErrors int // corrupt entries Get has found
}

// OpenDisk opens (creating if needed) the sharded store rooted at dir and
// counts its existing entries.
func OpenDisk[V any](dir string) (*Disk[V], error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	d := &Disk[V]{dir: dir}
	shards, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, sh := range shards {
		if !sh.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, sh.Name()))
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		for _, f := range files {
			if !f.IsDir() && strings.HasSuffix(f.Name(), ".json") {
				d.n++
			}
		}
	}
	return d, nil
}

// Dir returns the store's root directory.
func (d *Disk[V]) Dir() string { return d.dir }

// path maps a key onto its entry file. Keys are service identities
// (hex hash + "@" + decimal seed); anything that could escape the shard
// directory is rejected by the callers via checkKey.
func (d *Disk[V]) path(key string) string {
	shard := "_"
	if len(key) >= 2 {
		shard = key[:2]
	}
	return filepath.Join(d.dir, shard, key+".json")
}

// checkKey rejects keys that cannot be entry file names.
func checkKey(key string) error {
	if key == "" {
		return errors.New("store: empty key")
	}
	if strings.ContainsAny(key, "/\\") || key == "." || key == ".." {
		return fmt.Errorf("store: key %q is not a valid entry name", key)
	}
	return nil
}

// Get returns the value stored under key. A missing file is a miss; a
// file that fails to parse is removed, counted (ReadErrors) and reported as a
// miss.
func (d *Disk[V]) Get(key string) (V, bool) {
	var zero V
	if checkKey(key) != nil {
		return zero, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	path := d.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return zero, false
	}
	var v V
	if err := json.Unmarshal(data, &v); err != nil {
		// Corrupt entry: drop it so the slot heals on the next Put.
		d.readErrors++
		if os.Remove(path) == nil {
			d.n--
		}
		return zero, false
	}
	return v, true
}

// Put stores v under key atomically (temp file + fsync + rename).
func (d *Disk[V]) Put(key string, v V) error {
	if err := checkKey(key); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: encoding %q: %w", key, err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	path := d.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("store: writing %q: %w", key, werr)
	}
	_, existed := d.stat(path)
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if !existed {
		d.n++
	}
	return nil
}

// stat reports whether the entry file exists.
func (d *Disk[V]) stat(path string) (os.FileInfo, bool) {
	fi, err := os.Stat(path)
	return fi, err == nil
}

// Len returns the number of persisted entries.
func (d *Disk[V]) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.n
}

// ReadErrors returns how many corrupt entries Get has found, removed and
// served as misses since the store was opened.
func (d *Disk[V]) ReadErrors() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.readErrors
}

// Close releases the store. Every completed Put is already durable on
// disk, so Close has nothing to flush.
func (d *Disk[V]) Close() error { return nil }
