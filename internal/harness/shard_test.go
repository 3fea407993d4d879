package harness

import (
	"fmt"
	"reflect"
	"testing"
)

// TestShardPartitionCoversGridExactlyOnce pins the partition function
// itself: for any shard count, every point identity is owned by exactly
// one shard index, with no coordination between the owners.
func TestShardPartitionCoversGridExactlyOnce(t *testing.T) {
	var specs []spec
	base := Options{Quick: true, Seed: 7}
	for _, app := range []string{"exim", "memcached", "gmake"} {
		for cores := 1; cores <= 48; cores++ {
			specs = append(specs, base.newSpec(spec{workload: app, cores: cores, domains: domainsFor(app)}))
		}
	}
	for _, shards := range []int{1, 2, 3, 5, 16} {
		perShard := make([]int, shards)
		for i := range specs {
			owners := 0
			for idx := 0; idx < shards; idx++ {
				o := Options{Shards: shards, ShardIndex: idx}
				if o.shardOwns(&specs[i]) {
					owners++
					perShard[idx]++
				}
			}
			if owners != 1 {
				t.Fatalf("shards=%d: spec %q owned by %d shards, want exactly 1", shards, specs[i].key, owners)
			}
		}
		// Not a correctness requirement, but a wildly lopsided hash would
		// defeat the point of sharding; every shard must get real work on
		// a 144-point grid.
		for idx, n := range perShard {
			if n == 0 {
				t.Errorf("shards=%d: shard %d owns no points of %d", shards, idx, len(specs))
			}
		}
	}
}

// TestShardedSweepBitIdentical is the coordinator's acceptance guarantee:
// shard workers sharing one cache directory plus a merge pass produce a
// Series bit-for-bit identical to a single-process run — and the merge
// pass simulates nothing (every lookup hits). The shards' misses must sum
// to the single-process run's, so no point is computed by two shards.
func TestShardedSweepBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		exp    string
		shards int
	}{
		{"fig5", 2},
		{"fig10", 3}, // variant-rich grid, including the striped RR curve
		{"degrade", 2},
		{"ablate", 2},     // notes only, rows derived from pairs of points
		{"spool-dirs", 2}, // a fixed-cores parameter sweep
	} {
		tc := tc
		t.Run(fmt.Sprintf("%s-%dshards", tc.exp, tc.shards), func(t *testing.T) {
			t.Parallel()
			e := ByID(tc.exp)
			sc, err := OpenCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			single := e.Run(Options{Quick: true, Seed: 7, Cache: sc})
			if sc.Misses() == 0 {
				t.Fatalf("%s never consulted the cache, so sharding cannot split it", tc.exp)
			}

			// Every shard opens the shared directory before any of them
			// saves, as concurrent shard processes do, so a point two
			// shards both compute is a miss in each.
			dir := t.TempDir()
			caches := make([]*Cache, tc.shards)
			for idx := range caches {
				if caches[idx], err = OpenCache(dir); err != nil {
					t.Fatal(err)
				}
			}
			var shardMisses int64
			for idx, c := range caches {
				e.Run(Options{Quick: true, Seed: 7, Cache: c, Shards: tc.shards, ShardIndex: idx})
				shardMisses += c.Misses()
				if err := c.Save(); err != nil {
					t.Fatal(err)
				}
			}
			if shardMisses != sc.Misses() {
				t.Errorf("shards missed %d lookups in total, single process %d; every point must be computed by exactly one shard",
					shardMisses, sc.Misses())
			}

			mc, err := OpenCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			merged := e.Run(Options{Quick: true, Seed: 7, Cache: mc})
			if mc.Misses() != 0 {
				t.Errorf("merge pass missed %d lookups, want 0 (shards should have computed the whole grid)", mc.Misses())
			}
			if !reflect.DeepEqual(single, merged) {
				t.Errorf("%s: merged %d-shard sweep differs from single-process sweep:\nsingle: %+v\nmerged: %+v",
					tc.exp, tc.shards, single, merged)
			}
		})
	}
}

// TestShardsSplitSpecsAcrossExperiments: ablate, fig3 and fig4 share many
// specs (fig3's Exim cells are fig4's, ablate's baselines are the
// figures' stock cells). Run as two shards sharing one directory, each
// distinct spec's body runs in exactly one shard and at most once there,
// the shards together compute exactly the single process's specs, and a
// merge pass replays every experiment bit for bit without simulating.
func TestShardsSplitSpecsAcrossExperiments(t *testing.T) {
	exps := []string{"ablate", "fig3", "fig4"}
	sc, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	single := map[string]*Series{}
	for _, id := range exps {
		single[id] = ByID(id).Run(Options{Quick: true, Seed: 7, Cache: sc})
	}
	want := storedKeys(sc)
	if int64(len(want)) != sc.Misses() {
		t.Fatalf("single process simulated %d specs but stored %d", sc.Misses(), len(want))
	}

	dir := t.TempDir()
	caches := make([]*Cache, 2)
	for idx := range caches {
		if caches[idx], err = OpenCache(dir); err != nil {
			t.Fatal(err)
		}
	}
	owner := map[string]int{}
	for idx, c := range caches {
		for _, id := range exps {
			ByID(id).Run(Options{Quick: true, Seed: 7, Cache: c, Shards: 2, ShardIndex: idx})
		}
		got := storedKeys(c)
		if int64(len(got)) != c.Misses() {
			t.Errorf("shard %d ran %d bodies for %d distinct specs; each must run once", idx, c.Misses(), len(got))
		}
		for key := range got {
			if prev, dup := owner[key]; dup {
				t.Errorf("spec %q computed by shards %d and %d", key, prev, idx)
			}
			owner[key] = idx
		}
		if err := c.Save(); err != nil {
			t.Fatal(err)
		}
	}
	if len(owner) != len(want) {
		t.Errorf("shards computed %d distinct specs, single process %d", len(owner), len(want))
	}
	for key := range want {
		if _, ok := owner[key]; !ok {
			t.Errorf("no shard computed spec %q", key)
		}
	}

	mc, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range exps {
		if merged := ByID(id).Run(Options{Quick: true, Seed: 7, Cache: mc}); !reflect.DeepEqual(merged, single[id]) {
			t.Errorf("%s: merged sweep differs from the single-process sweep", id)
		}
	}
	if mc.Misses() != 0 {
		t.Errorf("merge pass missed %d lookups, want 0", mc.Misses())
	}
}

// storedKeys returns the section-qualified keys of every point c holds.
func storedKeys(c *Cache) map[string]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[string]bool{}
	for id, sec := range c.sections {
		for key := range sec.Points {
			out[id+"|"+key] = true
		}
	}
	return out
}

// TestShardWorkerOmitsForeignPoints: a worker's own Series contains only
// the points it owns — skipped points appear in neither Points nor Failed.
func TestShardWorkerOmitsForeignPoints(t *testing.T) {
	e := ByID("fig5")
	full := e.Run(Options{Quick: true, Seed: 7})
	total := 0
	for idx := 0; idx < 2; idx++ {
		s := e.Run(Options{Quick: true, Seed: 7, Shards: 2, ShardIndex: idx})
		if len(s.Failed) != 0 {
			t.Errorf("shard %d reported %d failed points, want 0: %+v", idx, len(s.Failed), s.Failed)
		}
		if len(s.Points) >= len(full.Points) {
			t.Errorf("shard %d computed %d of %d points; skipping is not happening", idx, len(s.Points), len(full.Points))
		}
		total += len(s.Points)
	}
	if total != len(full.Points) {
		t.Errorf("2 shards computed %d points in total, want the full grid's %d", total, len(full.Points))
	}
}

// TestValidateShards pins the CLI-facing validation messages.
func TestValidateShards(t *testing.T) {
	for _, tc := range []struct {
		shards, index int
		wantErr       bool
	}{
		{1, 0, false}, {2, 0, false}, {2, 1, false}, {16, 15, false},
		{0, 0, true}, {-1, 0, true}, {2, -1, true}, {2, 2, true}, {2, 5, true},
	} {
		err := ValidateShards(tc.shards, tc.index)
		if (err != nil) != tc.wantErr {
			t.Errorf("ValidateShards(%d, %d) = %v, wantErr=%v", tc.shards, tc.index, err, tc.wantErr)
		}
	}
}
