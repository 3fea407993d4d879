package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sync"
)

// cacheVersion is bumped whenever the meaning of cached values changes in
// a way neither the Point schema nor the cost-model fingerprints capture
// (e.g. a change to the key format itself).
const cacheVersion = 3

// cacheSchema fingerprints the cache's shape: the version, the section and
// key formats, and Point's full type shape down through its nested types
// (typeShape). It is the outer guard: a cache file written under a
// different schema self-invalidates wholesale on load, so refactors of
// Point or Metric can never resurface stale entries. Cost-model retunes
// are NOT part of the schema — they invalidate per cost-domain section
// through the fingerprint stored in each section.
var cacheSchema = func() string {
	h := sha256.New()
	fmt.Fprintf(h, "v%d|sections=domains[@machine]:fingerprint|key=workload[/measure]|opts|kernel|machine/fill|cores|seed|quick|placement|fault|arrival|link|shed|points=unlabeled|%s",
		cacheVersion, typeShape(reflect.TypeOf(Point{})))
	return hex.EncodeToString(h.Sum(nil))[:16]
}()

// typeShape renders t's structure: every struct field's name, tag and
// shape, recursing into nested structs and slice elements (the kinds a
// Point holds), so a change anywhere inside a cached value's type changes
// the string.
func typeShape(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Struct:
		shape := "struct{"
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			shape += fmt.Sprintf("%s %s %q|", f.Name, typeShape(f.Type), f.Tag)
		}
		return shape + "}"
	case reflect.Slice:
		return "[]" + typeShape(t.Elem())
	}
	return t.String()
}

// cacheFileName is the single JSON file a cache directory holds.
const cacheFileName = "points.json"

// cacheSection holds the points of every spec that declares one set of
// cost domains on one machine, stamped with the combined cost-model
// fingerprint they were computed under (see fingerprintFor). A section
// whose fingerprint no longer matches the running binary's is dropped —
// and only that section: a memcached retune drops the memcached cells of
// every experiment and keeps every other workload's.
type cacheSection struct {
	Fingerprint string           `json:"fingerprint"`
	Points      map[string]Point `json:"points"`
}

// cacheFile is the on-disk representation.
type cacheFile struct {
	Schema   string                   `json:"schema"`
	Sections map[string]*cacheSection `json:"sections"`
}

// counters tracks lookup outcomes, for one experiment or one section.
type counters struct {
	hits, misses, invalidated int64
}

// expCounters is one experiment's lookup outcomes plus the cells it looked
// up (key → section), from which Stats derives its Points and Invalidated.
type expCounters struct {
	counters
	cells map[string]string
}

// Cache is a content-addressed store of sweep points: each point is keyed
// by its cell's spec (see newSpec) and filed in the section of the cost
// domains the spec declares, stamped with those domains' cost-model
// fingerprint. The points are unlabeled measurements, so every experiment
// that simulates one spec shares its stored point, and a warm cache lets a
// repeated full-grid run skip simulation entirely. Retuning one cost
// domain invalidates exactly the sections that declare it, wherever their
// cells appear. The cache is safe for the concurrent sweep workers; Save
// merges with the current on-disk contents and writes atomically, so
// concurrent processes sharing a directory do not drop each other's
// points.
type Cache struct {
	path string
	logf func(format string, args ...any)

	mu       sync.Mutex
	sections map[string]*cacheSection
	expStats map[string]*expCounters
	secStats map[string]*counters
	hits     int64
	misses   int64
	dirty    bool
}

// OpenCache opens (creating if needed) the point cache in dir, silently.
// Use OpenCacheLogged to hear about ignored stale/corrupt files.
func OpenCache(dir string) (*Cache, error) { return OpenCacheLogged(dir, nil) }

// OpenCacheLogged opens (creating if needed) the point cache in dir. A
// cache file that does not parse or was written under a different schema
// version is ignored (the cache starts empty), and orphan temp files left
// by an interrupted Save are removed; each such event is reported as one
// line through logf (ignored when nil).
func OpenCacheLogged(dir string, logf func(format string, args ...any)) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: cache dir: %w", err)
	}
	c := &Cache{
		path:     filepath.Join(dir, cacheFileName),
		logf:     logf,
		sections: map[string]*cacheSection{},
		expStats: map[string]*expCounters{},
		secStats: map[string]*counters{},
	}
	// A crash (or full disk) between Save's temp-file write and rename
	// strands a points.json.tmp* next to the cache; it will never be
	// renamed, so clean it up rather than letting orphans accumulate.
	if orphans, _ := filepath.Glob(c.path + ".tmp*"); len(orphans) > 0 {
		for _, orphan := range orphans {
			os.Remove(orphan)
		}
		c.warnf("harness: cache: removed %d orphan temp file(s) left by an interrupted save in %s", len(orphans), dir)
	}
	f, err := readCacheFile(c.path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// Fresh directory.
	case err != nil:
		c.warnf("harness: cache: ignoring %s (%v); starting empty", c.path, err)
	case f.Schema != cacheSchema:
		c.warnf("harness: cache: ignoring %s written under schema %s (current %s); starting empty",
			c.path, f.Schema, cacheSchema)
	default:
		for id, s := range f.Sections {
			if s == nil {
				continue
			}
			if s.Points == nil {
				s.Points = map[string]Point{}
			}
			c.sections[id] = s
		}
	}
	return c, nil
}

// readCacheFile reads and parses the cache file at path. The caller
// compares the returned Schema against cacheSchema.
func readCacheFile(path string) (*cacheFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f cacheFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("unparsable cache file: %w", err)
	}
	return &f, nil
}

// warnf reports a one-line condition through the optional logger.
func (c *Cache) warnf(format string, args ...any) {
	if c.logf != nil {
		c.logf(format, args...)
	}
}

// Save writes the cache back to its directory. The current on-disk
// contents are merged in first — section by section, points from both
// sides kept wherever the fingerprints agree, the current fingerprint's
// side winning where they do not — so two processes sharing a cache
// directory never silently drop each other's points. The write itself is
// atomic (unique temp file + rename). Saving an unchanged cache is a
// no-op.
func (c *Cache) Save() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.dirty {
		return nil
	}
	// Serialize the read-merge-rename against other processes sharing the
	// directory; without this, a save racing between another writer's read
	// and rename could still drop its points. Best-effort: if locking is
	// unavailable the merge still runs, it just keeps the narrow race.
	if release, err := lockFile(c.path + ".lock"); err == nil {
		defer release()
	} else {
		c.warnf("harness: cache: saving without cross-process lock (%v)", err)
	}
	if f, err := readCacheFile(c.path); err == nil && f.Schema == cacheSchema {
		for id, theirs := range f.Sections {
			if theirs == nil || len(theirs.Points) == 0 {
				continue
			}
			ours, ok := c.sections[id]
			if !ok {
				// A section only another process filled: keep it.
				c.sections[id] = theirs
				continue
			}
			if ours.Fingerprint != theirs.Fingerprint {
				// Disagreeing fingerprints: the side computed under the
				// current cost model wins. In particular a section this
				// process only loaded (never ran) must not clobber points
				// another process just computed under the current
				// fingerprint.
				if cur := fingerprintFor(id); theirs.Fingerprint == cur && ours.Fingerprint != cur {
					c.sections[id] = theirs
				}
				continue
			}
			for k, v := range theirs.Points {
				if _, exists := ours.Points[k]; !exists {
					ours.Points[k] = v
				}
			}
		}
	} else if err != nil && !errors.Is(err, fs.ErrNotExist) {
		c.warnf("harness: cache: overwriting %s rather than merging (%v)", c.path, err)
	}
	data, err := json.MarshalIndent(cacheFile{Schema: cacheSchema, Sections: c.sections}, "", " ")
	if err != nil {
		return fmt.Errorf("harness: cache encode: %w", err)
	}
	// A unique temp name per writer keeps concurrent saves from clobbering
	// each other's in-flight files; OpenCache sweeps up any orphans.
	if err := writeAtomic(c.path, "cache", data); err != nil {
		return err
	}
	c.dirty = false
	return nil
}

// writeAtomic writes data to path through a uniquely named temp file in
// the same directory (path + ".tmp*") and a rename, so a reader never sees
// a truncated file. what names the file in errors.
func writeAtomic(path, what string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("harness: %s temp file: %w", what, err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: %s write: %w", what, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: %s close: %w", what, err)
	}
	os.Chmod(tmp.Name(), 0o644)
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: %s rename: %w", what, err)
	}
	return nil
}

// Hits returns how many lookups were served from the cache.
func (c *Cache) Hits() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}

// Misses returns how many lookups fell through to simulation.
func (c *Cache) Misses() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.misses
}

// Len returns the number of cached points across all sections.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.len()
}

// len is Len with c.mu held.
func (c *Cache) len() int {
	n := 0
	for _, s := range c.sections {
		n += len(s.Points)
	}
	return n
}

// ExperimentCacheStats is the cache activity of one experiment's lookups.
// Cells another experiment already stored are hits.
type ExperimentCacheStats struct {
	// Hits and Misses count this cache's lookups for the experiment.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Invalidated counts the stored points dropped from the sections the
	// experiment's cells live in because their cost-model fingerprint
	// changed since they were computed. A section shared with other
	// experiments counts toward each of them.
	Invalidated int64 `json:"invalidated"`
	// Points is the number of the experiment's cells currently cached.
	Points int `json:"points"`
}

// SectionCacheStats is one cost-domain section's activity and contents.
type SectionCacheStats struct {
	// Hits and Misses count this cache's lookups of the section's cells.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Invalidated counts stored points dropped because the section's
	// cost-model fingerprint changed since they were computed.
	Invalidated int64 `json:"invalidated"`
	// Points is the number of points currently cached in the section.
	Points int `json:"points"`
}

// CacheStats reports the totals, each experiment's lookups, and each
// section's lookups and contents. Points is the number of distinct cells
// cached, across every section.
type CacheStats struct {
	Hits        int64                           `json:"hits"`
	Misses      int64                           `json:"misses"`
	Invalidated int64                           `json:"invalidated"`
	Points      int                             `json:"points"`
	Experiments map[string]ExperimentCacheStats `json:"experiments"`
	Sections    map[string]SectionCacheStats    `json:"sections"`
}

// WriteStats writes the cache's activity snapshot as indented JSON to
// path, creating missing parent directories and using the same unique
// temp-file + atomic-rename discipline as Save, so an interrupted write
// never leaves a truncated stats file behind.
func (c *Cache) WriteStats(path string) error {
	data, err := json.MarshalIndent(c.Stats(), "", " ")
	if err != nil {
		return fmt.Errorf("harness: cache stats encode: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("harness: cache stats dir: %w", err)
	}
	return writeAtomic(path, "cache stats", append(data, '\n'))
}

// Stats returns a snapshot of the cache's activity since it was opened.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := CacheStats{Hits: c.hits, Misses: c.misses, Points: c.len(),
		Experiments: map[string]ExperimentCacheStats{}, Sections: map[string]SectionCacheStats{}}
	for id, s := range c.sections {
		out.Sections[id] = SectionCacheStats{Points: len(s.Points)}
	}
	for id, st := range c.secStats {
		e := out.Sections[id]
		e.Hits, e.Misses, e.Invalidated = st.hits, st.misses, st.invalidated
		out.Sections[id] = e
		out.Invalidated += st.invalidated
	}
	for exp, st := range c.expStats {
		e := ExperimentCacheStats{Hits: st.hits, Misses: st.misses}
		secs := map[string]bool{}
		for key, sec := range st.cells {
			if s := c.sections[sec]; s != nil {
				if _, ok := s.Points[key]; ok {
					e.Points++
				}
			}
			if !secs[sec] {
				secs[sec] = true
				e.Invalidated += out.Sections[sec].Invalidated
			}
		}
		out.Experiments[exp] = e
	}
	return out
}

// counter returns m's counters for id, creating them on first use. Caller
// holds c.mu.
func counter(m map[string]*counters, id string) *counters {
	st := m[id]
	if st == nil {
		st = &counters{}
		m[id] = st
	}
	return st
}

// expCounter returns exp's counters, creating them on first use. Caller
// holds c.mu.
func (c *Cache) expCounter(exp string) *expCounters {
	st := c.expStats[exp]
	if st == nil {
		st = &expCounters{cells: map[string]string{}}
		c.expStats[exp] = st
	}
	return st
}

// section returns section id primed for fingerprint fp: a missing section
// is created empty, and a section computed under a different fingerprint
// has its points dropped (counted as invalidated). Caller holds c.mu.
func (c *Cache) section(id, fp string) *cacheSection {
	s := c.sections[id]
	if s == nil {
		s = &cacheSection{Fingerprint: fp, Points: map[string]Point{}}
		c.sections[id] = s
		return s
	}
	if s.Fingerprint != fp {
		if n := len(s.Points); n > 0 {
			counter(c.secStats, id).invalidated += int64(n)
			c.dirty = true // purge the stale points from disk on Save
		}
		s.Fingerprint = fp
		s.Points = map[string]Point{}
	}
	return s
}

// lookup returns the point stored for key in section sec under
// fingerprint fp, counting the outcome for experiment exp and the section.
func (c *Cache) lookup(exp, sec, fp, key string) (Point, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.section(sec, fp).Points[key]
	es, ss := c.expCounter(exp), counter(c.secStats, sec)
	es.cells[key] = sec
	if ok {
		c.hits++
		es.hits++
		ss.hits++
	} else {
		c.misses++
		es.misses++
		ss.misses++
	}
	return p, ok
}

func (c *Cache) store(sec, fp, key string, p Point) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.section(sec, fp).Points[key] = p
	c.dirty = true
}
