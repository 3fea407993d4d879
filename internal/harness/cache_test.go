package harness

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/apps"
)

// probeExperiments are the experiments that never consult the cache.
// Only fig1 is one: it prints the fix table and simulates nothing, and its
// text is not fingerprinted, so caching it could serve stale text. Every
// other experiment runs its simulations as sweep cells.
var probeExperiments = []string{"fig1"}

// cachingRun runs every registered experiment against one fresh cache and
// returns it, failing unless the experiments that never look a cell up are
// exactly probeExperiments. Derived, not hard-coded, so new experiments
// are covered automatically.
func cachingRun(t *testing.T, seed uint64) *Cache {
	t.Helper()
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range Experiments() {
		e.Run(Options{Quick: true, Seed: seed, Cache: c})
	}
	var uncached []string
	for _, e := range Experiments() {
		if st := c.Stats().Experiments[e.ID]; st.Hits+st.Misses == 0 {
			uncached = append(uncached, e.ID)
		}
	}
	if !reflect.DeepEqual(uncached, probeExperiments) {
		t.Fatalf("experiments that never consult the cache = %v, want exactly the probes %v", uncached, probeExperiments)
	}
	return c
}

// specKey is the key of a fixed probe spec built under o, for tests of the
// run-wide spec terms.
func specKey(o Options) string {
	return o.newSpec(spec{workload: "probe", cores: 8, domains: kernelDomains}).key
}

// memcachedSection reports whether a cache section holds memcached cells
// (closed-loop, faulted or open-loop, on any machine).
func memcachedSection(id string) bool {
	domains, _, _ := strings.Cut(id, "@")
	return slices.Contains(strings.Split(domains, "+"), "apps/memcached")
}

// TestFingerprintInvalidationIsPerWorkload pins incremental invalidation:
// perturb the stored fingerprint of every section that holds memcached
// cells (what a retune of memcached's constants does), then re-run each
// experiment warm against that cache. Every memcached cell re-simulates
// (misses, stale points counted invalidated) in every experiment that has
// one; every other cell — Exim's in particular — is served from the cache
// with zero misses, wherever it appears.
func TestFingerprintInvalidationIsPerWorkload(t *testing.T) {
	const seed = 11
	dir := t.TempDir()
	c1, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Quick: true, Seed: seed, Cache: c1}
	series := map[string]*Series{}
	for _, e := range Experiments() {
		series[e.ID] = e.Run(o)
	}
	if err := c1.Save(); err != nil {
		t.Fatal(err)
	}

	// Perturb the memcached sections' fingerprints on disk, as if
	// memcached's tuning constants had been retuned since the cache was
	// written.
	path := filepath.Join(dir, cacheFileName)
	f, err := readCacheFile(path)
	if err != nil {
		t.Fatal(err)
	}
	victims := 0
	for id, sec := range f.Sections {
		if !memcachedSection(id) {
			continue
		}
		if sec.Fingerprint != fingerprintFor(id) {
			t.Fatalf("cache file section %s is not stamped with its current fingerprint", id)
		}
		sec.Fingerprint = "feedfacefeedface"
		victims++
	}
	if victims == 0 {
		t.Fatal("cache file has no memcached section")
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Each experiment opens its own view of the perturbed file, so none
	// replays a memcached cell another experiment just recomputed.
	memcachedExps := map[string]bool{"ablate": true, "degrade": true, "dma": true, "fig12": true, "fig3": true,
		"fig5": true, "latload": true, "machines": true, "nic-env": true, "profile": true}
	eximExps := map[string]bool{"ablate": true, "fig12": true, "fig3": true, "fig4": true, "machines": true,
		"profile": true, "scalable-locks": true, "spool-dirs": true}
	const eximSection = "topo+mem+kernel+apps/exim"
	for _, e := range Experiments() {
		c2, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Run(Options{Quick: true, Seed: seed, Cache: c2}); !reflect.DeepEqual(got, series[e.ID]) {
			t.Errorf("%s: warm series differs from cold series", e.ID)
		}
		var memcachedMisses int64
		for id, st := range c2.Stats().Sections {
			switch {
			case memcachedSection(id):
				memcachedMisses += st.Misses
				if st.Hits != 0 {
					t.Errorf("%s: %d memcached cells in %s hit a section computed under the old constants", e.ID, st.Hits, id)
				}
				if st.Misses > 0 && st.Invalidated == 0 {
					t.Errorf("%s: stale points of %s were not counted as invalidated", e.ID, id)
				}
			case st.Misses != 0 || st.Invalidated != 0:
				t.Errorf("%s: section %s missed %d and invalidated %d; only memcached's fingerprint changed",
					e.ID, id, st.Misses, st.Invalidated)
			}
		}
		if got := memcachedMisses > 0; got != memcachedExps[e.ID] {
			t.Errorf("%s: %d memcached cells re-simulated; want some exactly when it runs memcached (%v)",
				e.ID, memcachedMisses, memcachedExps[e.ID])
		}
		if st := c2.Stats().Sections[eximSection]; eximExps[e.ID] && (st.Hits == 0 || st.Misses != 0) {
			t.Errorf("%s: Exim cells %d hits, %d misses; a memcached retune must leave them all hits", e.ID, st.Hits, st.Misses)
		}
		// The experiment's own entry reports the retune in the sections
		// its cells live in, and every cell it looked up is cached again.
		es := c2.Stats().Experiments[e.ID]
		if got := es.Invalidated > 0; got != memcachedExps[e.ID] {
			t.Errorf("%s: experiment stats report %d invalidated; want some exactly when it runs memcached", e.ID, es.Invalidated)
		}
		if lookups := es.Hits + es.Misses; (es.Points == 0 && lookups > 0) || int64(es.Points) > lookups {
			t.Errorf("%s: experiment stats report %d points cached for %d lookups", e.ID, es.Points, lookups)
		}
	}
}

// TestDomainRetuneInvalidatesOnlyDependents models a retune in-process:
// swapping one app domain's fingerprint must make that app's cells miss,
// while the cells of a different app still hit.
func TestDomainRetuneInvalidatesOnlyDependents(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Quick: true, Seed: 9, Cache: c}
	ByID("fig4").Run(o) // exim
	ByID("fig5").Run(o) // memcached

	const domain = "apps/memcached"
	orig, ok := costDomains[domain]
	if !ok {
		t.Fatalf("domain %q not registered", domain)
	}
	costDomains[domain] = "feedfacefeedface"
	defer func() { costDomains[domain] = orig }()

	ByID("fig4").Run(o)
	ByID("fig5").Run(o)
	stats := c.Stats()
	if st := stats.Experiments["fig4"]; st.Misses != st.Hits { // cold misses == warm hits
		t.Errorf("fig4 (exim): %d hits, %d misses; a memcached retune must not invalidate it",
			st.Hits, st.Misses)
	}
	if st := stats.Experiments["fig5"]; st.Hits != 0 {
		t.Errorf("fig5 (memcached): %d hits; the retune should have dropped its points", st.Hits)
	}
	if st := stats.Sections["topo+mem+kernel+"+domain]; st.Invalidated == 0 {
		t.Errorf("memcached section: %+v; the retune should have invalidated its points", st)
	}
}

// TestEveryCachingExperimentDeclaresDomains keeps specs honest: every
// section a full run fills names only known cost domains, always the
// machine's ("topo", "mem"), and every application cell sits in a section
// that declares its application's domain, so retuning that application
// invalidates it.
func TestEveryCachingExperimentDeclaresDomains(t *testing.T) {
	c := cachingRun(t, 13)
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, sec := range c.sections {
		domainList, _, _ := strings.Cut(id, "@")
		domains := strings.Split(domainList, "+")
		for _, d := range domains {
			if _, ok := costDomains[d]; !ok {
				t.Errorf("section %q declares unknown cost domain %q", id, d)
			}
		}
		if !slices.Contains(domains, "topo") || !slices.Contains(domains, "mem") {
			t.Errorf("section %q does not declare the machine's domains", id)
		}
		for key := range sec.Points {
			workload, _, _ := strings.Cut(key, "|")
			for app := range apps.Fingerprints() {
				if strings.HasPrefix(workload, app) && !slices.Contains(domains, "apps/"+app) {
					t.Errorf("cell %q sits in section %q, which does not declare apps/%s", key, id, app)
				}
			}
		}
	}
}

// Two real section IDs for the cache-file tests below.
const (
	eximSec      = "topo+mem+kernel+apps/exim"
	memcachedSec = "topo+mem+kernel+apps/memcached"
)

// TestCacheSaveMergesOnDisk pins the cross-process durability fix: two
// cache handles sharing one directory, each saving different points, must
// both survive — last writer merges, not wins.
func TestCacheSaveMergesOnDisk(t *testing.T) {
	dir := t.TempDir()
	c1, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	fp := fingerprintFor(eximSec)
	c1.store(eximSec, fp, "Stock|1|seed=1|quick=true|placement=local", Point{Cores: 1, Variant: "Stock", PerCore: 10})
	c2.store(eximSec, fp, "Stock|48|seed=1|quick=true|placement=local", Point{Cores: 48, Variant: "Stock", PerCore: 5})
	c2.store(memcachedSec, fingerprintFor(memcachedSec), "PK|8|seed=1|quick=true|placement=local", Point{Cores: 8, Variant: "PK", PerCore: 7})
	if err := c1.Save(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Save(); err != nil {
		t.Fatal(err)
	}

	c3, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := c3.Len(); got != 3 {
		t.Errorf("after two merging saves the cache holds %d points, want 3", got)
	}
	for _, probe := range []struct{ sec, key string }{
		{eximSec, "Stock|1|seed=1|quick=true|placement=local"},
		{eximSec, "Stock|48|seed=1|quick=true|placement=local"},
		{memcachedSec, "PK|8|seed=1|quick=true|placement=local"},
	} {
		if _, ok := c3.lookup("test", probe.sec, fingerprintFor(probe.sec), probe.key); !ok {
			t.Errorf("point %s/%s lost across concurrent saves", probe.sec, probe.key)
		}
	}
}

// TestCacheSaveMergeDropsStaleSections: when the on-disk section was
// written under an older fingerprint, the in-memory (current) section
// wins the merge and the stale points are purged.
func TestCacheSaveMergeDropsStaleSections(t *testing.T) {
	dir := t.TempDir()
	c1, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1.store(eximSec, "0ldf1ngerpr1nt00", "Stock|1|seed=1|quick=true|placement=local", Point{Cores: 1, PerCore: 99})
	if err := c1.Save(); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	fp := fingerprintFor(eximSec)
	c2.store(eximSec, fp, "Stock|1|seed=1|quick=true|placement=local", Point{Cores: 1, PerCore: 10})
	if err := c2.Save(); err != nil {
		t.Fatal(err)
	}

	c3, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := c3.lookup("test", eximSec, fp, "Stock|1|seed=1|quick=true|placement=local")
	if !ok || p.PerCore != 10 {
		t.Errorf("current-fingerprint point lost in merge: ok=%v p=%+v", ok, p)
	}
	if got := c3.Len(); got != 1 {
		t.Errorf("stale section survived the merge: %d points, want 1", got)
	}
}

// TestCacheSaveMergePrefersCurrentFingerprintOnDisk: a handle holding a
// stale-fingerprint section it never ran (e.g. loaded from a cache file
// written by an older cost model) must not clobber points another
// process just computed under the current fingerprint — the side that
// matches the current cost model wins the merge regardless of which
// handle saves last.
func TestCacheSaveMergePrefersCurrentFingerprintOnDisk(t *testing.T) {
	dir := t.TempDir()
	key := "Stock|1|seed=1|quick=true|placement=local"
	fp := fingerprintFor(eximSec)

	stale, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	stale.store(eximSec, "0ldf1ngerpr1nt00", key, Point{Cores: 1, PerCore: 99})

	current, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	current.store(eximSec, fp, key, Point{Cores: 1, PerCore: 10})
	if err := current.Save(); err != nil {
		t.Fatal(err)
	}
	// The stale handle saves last; its merge must adopt the disk section.
	if err := stale.Save(); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := reopened.lookup("test", eximSec, fp, key)
	if !ok || p.PerCore != 10 {
		t.Errorf("current-fingerprint point lost to a stale last writer: ok=%v p=%+v", ok, p)
	}
}

// TestOpenCacheWarnsAndRemovesOrphanTmp pins the durability bugfixes: an
// unparsable cache file is reported (not silently discarded), and temp
// files stranded by an interrupted save are removed.
func TestOpenCacheWarnsAndRemovesOrphanTmp(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, cacheFileName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, cacheFileName+".tmp123")
	if err := os.WriteFile(orphan, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}

	var warnings []string
	c, err := OpenCacheLogged(dir, func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Errorf("unparsable cache produced %d points, want 0", c.Len())
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphan temp file %s not removed", orphan)
	}
	var sawParse, sawOrphan bool
	for _, w := range warnings {
		if strings.Contains(w, "unparsable") {
			sawParse = true
		}
		if strings.Contains(w, "orphan") {
			sawOrphan = true
		}
	}
	if !sawParse || !sawOrphan {
		t.Errorf("warnings missing parse/orphan reports: %q", warnings)
	}

	// A stale-schema file must be reported too.
	if err := os.WriteFile(filepath.Join(dir, cacheFileName),
		[]byte(`{"schema":"deadbeef","experiments":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	warnings = nil
	if _, err := OpenCacheLogged(dir, func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}); err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "schema") {
		t.Errorf("stale-schema open produced warnings %q, want one schema report", warnings)
	}
}

// TestCacheConcurrentUse hammers lookup/store/Save from parallel workers
// (run under -race in CI, like a parallel sweep sharing one cache) and
// then verifies no stored point was lost.
func TestCacheConcurrentUse(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	secs := []string{eximSec, memcachedSec, "topo+mem+kernel+apps/gmake", "topo+mem+kernel"}
	const workers = 8
	const opsPerWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < opsPerWorker; i++ {
				sec := secs[rng.Intn(len(secs))]
				fp := fingerprintFor(sec)
				key := fmt.Sprintf("v%d|%d|seed=1|quick=true|placement=local", w, i)
				if _, ok := c.lookup("test", sec, fp, key); !ok {
					c.store(sec, fp, key, Point{Cores: i, Variant: fmt.Sprintf("v%d", w), PerCore: float64(i)})
				}
				if i%50 == 0 {
					if err := c.Save(); err != nil {
						t.Errorf("worker %d: save: %v", w, err)
					}
				}
				_ = c.Stats()
			}
		}()
	}
	wg.Wait()
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := workers * opsPerWorker
	if got := reopened.Len(); got != want {
		t.Errorf("cache holds %d points after concurrent use, want %d", got, want)
	}
}

func TestWriteStatsJSONCreatesParentDirs(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	// Generate some activity so the snapshot has content.
	c.lookup("exp", "sec", "fp", "k")
	c.store("sec", "fp", "k", Point{Cores: 1})
	c.lookup("exp", "sec", "fp", "k")

	// The stats path's parent does not exist yet; WriteStats must
	// create it rather than failing like a plain os.WriteFile would.
	path := filepath.Join(dir, "artifacts", "nested", "stats.json")
	if err := c.WriteStats(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got CacheStats
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("stats file is not valid JSON: %v\n%s", err, data)
	}
	if got.Hits != 1 || got.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit and 1 miss", got)
	}
	if e := got.Experiments["exp"]; e.Hits != 1 || e.Misses != 1 {
		t.Errorf("experiment stats = %+v, want 1 hit and 1 miss", e)
	}
	if sec := got.Sections["sec"]; sec.Points != 1 || got.Points != 1 {
		t.Errorf("section stats = %+v, total %d points; want 1 point", sec, got.Points)
	}
	// No temp files left behind: the write renamed into place.
	if orphans, _ := filepath.Glob(path + ".tmp*"); len(orphans) != 0 {
		t.Errorf("orphan temp files left: %v", orphans)
	}
}

// TestTypeShapeCoversNestedTypes: the cache schema hashes Point's shape
// through its nested types, so changing the fields of a type Point only
// reaches through a slice (as it reaches Metric) changes the schema, while
// renaming types of identical shape does not.
func TestTypeShapeCoversNestedTypes(t *testing.T) {
	type metricA struct {
		Name  string
		Value float64
	}
	type metricB struct {
		Name  string
		Value float64
		Unit  string
	}
	type metricC struct {
		Name  string
		Value float64
	}
	type pointA struct{ Metrics []metricA }
	type pointB struct{ Metrics []metricB }
	type pointC struct{ Metrics []metricC }
	a, b, c := typeShape(reflect.TypeOf(pointA{})), typeShape(reflect.TypeOf(pointB{})), typeShape(reflect.TypeOf(pointC{}))
	if a == b {
		t.Errorf("adding a field to a nested type left the shape unchanged: %s", a)
	}
	if a != c {
		t.Errorf("identically shaped types render differently:\n%s\n%s", a, c)
	}
	if got := typeShape(reflect.TypeOf(Point{})); !strings.Contains(got, "Metrics []struct{Name string") {
		t.Errorf("Point's shape does not reach into Metric: %s", got)
	}
}

// TestEqualSpecsRunOnce: a spec's body runs once however many cells ask
// for it. Within one sweep, ablate's 32 cells are 21 distinct specs (its
// stock baselines repeat), so a parallel run executes 21 bodies and
// matches the serial run; across experiments sharing a cache, fig3's Exim
// cells are fig4's, so running fig4 and then fig3 computes no Exim cell
// twice.
func TestEqualSpecsRunOnce(t *testing.T) {
	defer func() { testPointHook = nil }()
	var mu sync.Mutex
	bodies := map[string]int{} // experiment/variant -> bodies run
	testPointHook = func(exp, variant string, cores, attempt int) {
		mu.Lock()
		bodies[exp+"/"+variant]++
		mu.Unlock()
	}
	count := func(prefix string) int {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for k, v := range bodies {
			if strings.HasPrefix(k, prefix) {
				n += v
			}
		}
		return n
	}

	parallel := ByID("ablate").Run(Options{Quick: true, Seed: 5})
	if got := count("ablate/"); got != 21 {
		t.Errorf("parallel ablate ran %d bodies for its 32 cells, want 21 (one per distinct spec)", got)
	}
	if serial := ByID("ablate").Run(Options{Quick: true, Seed: 5, Serial: true}); !reflect.DeepEqual(parallel, serial) {
		t.Errorf("parallel ablate differs from the serial run:\nparallel: %+v\nserial:   %+v", parallel, serial)
	}

	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Quick: true, Seed: 5, Cache: c}
	ByID("fig4").Run(o)
	ByID("fig3").Run(o)
	if got := count("fig3/Exim"); got != 0 {
		t.Errorf("fig3 re-simulated %d Exim cells fig4 already computed", got)
	}
	if st := c.Stats().Sections[eximSec]; st.Misses != 6 || st.Hits != 4 {
		t.Errorf("Exim section: %d misses, %d hits; want fig4's 6 cells computed and fig3's 4 served", st.Misses, st.Hits)
	}
}
