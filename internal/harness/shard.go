package harness

import (
	"errors"
	"fmt"
	"hash/fnv"
)

// Sharding splits a sweep's point grid across cooperating processes: every
// process runs the same experiments with the same Options except for
// ShardIndex, each computes only the points it owns, and all of them store
// into one shared flock-guarded cache directory. A final merge pass — the
// same sweep with Shards back at 1 against the warm cache — then assembles
// a Series bit-for-bit identical to a single-process run: every point is a
// cache hit, and any point a crashed shard failed to deliver is simply
// computed by the merge pass itself.
//
// Ownership is a pure function of what a cell simulates (its spec's
// section and key), not of enumeration order or of which experiment asks,
// so any process — or CI shard on a different machine — partitions the
// grid identically without coordination, and a spec that several
// experiments share is computed by exactly one shard. Every simulation an
// experiment runs is a sweep cell, so every experiment that simulates
// splits; the probes (tbl-hw, fig2, profile) carry their measurements in
// Point.Metrics and render their notes from the merged cells. Only fig1,
// which prints the fix table and simulates nothing, runs whole in
// whichever process prints it.

// errShardSkipped marks a sweep point owned by another shard: the point is
// omitted from both Series.Points and Series.Failed.
var errShardSkipped = errors.New("harness: sweep point owned by another shard")

// ValidateShards checks a Shards/ShardIndex combination, returning an
// actionable error for the CLI (and mosbench.Run) to surface.
func ValidateShards(shards, index int) error {
	if shards < 1 {
		return fmt.Errorf("shards must be at least 1, got %d", shards)
	}
	if index < 0 {
		return fmt.Errorf("shard index must not be negative, got %d", index)
	}
	if index >= shards {
		return fmt.Errorf("shard index %d out of range for %d shard(s); valid indices are 0..%d",
			index, shards, shards-1)
	}
	return nil
}

// rowSkipReason explains why a derived row (fig3's ratio, fig12's and
// degrade's retention, dma's and ablate's gain) cannot be assembled from
// its measurements' errors: a real failure listed in Series.Failed, or a
// benign shard split. It returns "" when every measurement succeeded.
func rowSkipReason(errs []error) string {
	why := ""
	for _, err := range errs {
		switch {
		case err == nil:
		case !errors.Is(err, errShardSkipped):
			return "a measurement failed (see failed points)"
		default:
			why = "a measurement is owned by another shard (the merge pass assembles this row)"
		}
	}
	return why
}

// shardOwns reports whether this Options' shard owns the spec sp. With
// Shards unset (or 1) every spec is owned.
func (o Options) shardOwns(sp *spec) bool {
	if o.Shards <= 1 {
		return true
	}
	h := fnv.New64a()
	h.Write([]byte(sp.section))
	h.Write([]byte{'|'})
	h.Write([]byte(sp.key))
	return h.Sum64()%uint64(o.Shards) == uint64(o.ShardIndex)
}
