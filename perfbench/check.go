package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
)

// referenceJSON holds the output digest (title, CSV and notes) of every
// experiment the workloads run, for a range of seeds, as computed at the commit that recorded it.
// The model has no real-hardware reference results (only the paper-shape
// bands in the harness goldens), so correctness here means bit-identical
// output: a change that alters any figure must say so by regenerating
// this file with the "reference" subcommand.
//
//go:embed reference.json
var referenceJSON []byte

type referenceFile struct {
	// Fig4Full maps a seed to the digest of fig4 at full budgets on the
	// default grid (the exim-cold sweep).
	Fig4Full map[string]string `json:"fig4_full"`
	// Quick maps a seed to each experiment's digest at -quick size (the
	// all-quick-* sweeps).
	Quick map[string]map[string]string `json:"quick"`
}

func loadReference() (referenceFile, error) {
	var r referenceFile
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return r, fmt.Errorf("reference.json: %w", err)
	}
	return r, nil
}

// digests returns the recorded digests of w's experiments under seed, or
// nil when that seed was not recorded.
func (r referenceFile) digests(w workload, seed uint64) map[string]string {
	key := strconv.FormatUint(seed, 10)
	if w.all {
		return r.Quick[key]
	}
	if d, ok := r.Fig4Full[key]; ok {
		return map[string]string{"fig4": d}
	}
	return nil
}

// checker accumulates the output check over every sweep of a run. A
// point counts as failed when it lands in Series.Failed, or when its
// experiment's digest differs from the recorded reference or from the
// first sweep of the run (the cold prime, for the warm workload). An
// experiment without points (one that reports only notes) counts as one
// point. Under a recorded seed, an experiment the reference lacks, or a
// reference entry no experiment produced, is a failure too.
type checker struct {
	ref       map[string]string // nil when the seed has no reference
	first     map[string]string
	firstFrom string
	attempted int
	failed    int
	problems  []string
}

func newChecker(ref map[string]string) *checker {
	return &checker{ref: ref, first: map[string]string{}}
}

// add checks the experiments of one sweep, labelled for messages.
func (c *checker) add(label string, exps []expResult) {
	if c.firstFrom == "" {
		c.firstFrom = label
	}
	seen := map[string]bool{}
	for _, e := range exps {
		seen[e.ID] = true
		c.attempted += max(e.Points+len(e.Failed), 1)
		c.failed += len(e.Failed)
		for _, f := range e.Failed {
			c.problems = append(c.problems, fmt.Sprintf("%s: %s failed point %s", label, e.ID, f))
		}
		wrong := max(e.Points, 1)
		want, ok := c.ref[e.ID]
		switch {
		case c.ref != nil && !ok:
			c.failed += wrong
			c.problems = append(c.problems, fmt.Sprintf("%s: %s has no reference digest for this seed", label, e.ID))
			continue
		case ok && want != e.Digest:
			c.failed += wrong
			c.problems = append(c.problems, fmt.Sprintf("%s: %s output digest %s, reference %s", label, e.ID, e.Digest, want))
			continue
		}
		if want, ok := c.first[e.ID]; !ok {
			c.first[e.ID] = e.Digest
		} else if want != e.Digest {
			c.failed += wrong
			c.problems = append(c.problems, fmt.Sprintf("%s: %s output digest %s differs from %s's %s", label, e.ID, e.Digest, c.firstFrom, want))
		}
	}
	var missing []string
	for id := range c.ref {
		if !seen[id] {
			missing = append(missing, id)
		}
	}
	sort.Strings(missing)
	for _, id := range missing {
		c.attempted++
		c.failed++
		c.problems = append(c.problems, fmt.Sprintf("%s: the reference has %s, the sweep did not produce it", label, id))
	}
}

// addReplay counts replayed points that differ from the harness's.
func (c *checker) addReplay(label string, mismatches []string) {
	c.failed += len(mismatches)
	for _, m := range mismatches {
		c.problems = append(c.problems, fmt.Sprintf("%s: replay differs: %s", label, m))
	}
}

func (c *checker) ok() bool { return c.failed == 0 && c.attempted > 0 }

// okFrac is the share of attempted points that came out right.
func (c *checker) okFrac() float64 {
	return 1 - ratio(float64(min(c.failed, c.attempted)), float64(c.attempted))
}
