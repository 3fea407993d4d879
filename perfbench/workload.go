package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"repro/mosbench"
)

// cacheMode says what sweep-point cache a workload's sweep runs against.
type cacheMode int

const (
	noCache     cacheMode = iota
	freshCache            // an empty cache directory per sweep
	primedCache           // a cache one cold sweep filled before timing
)

// workload is one named set of inputs. The seed is the only input the
// benchmark varies; it reaches the program as mosbench.Options.Seed.
type workload struct {
	name, why string
	// all runs every registered experiment at -quick size with the
	// default parallel sweep; otherwise the workload is fig4 at full
	// budgets on the default core grid, swept serially.
	all   bool
	cache cacheMode
}

var workloads = []workload{
	{
		name: "exim-cold",
		why:  "fig4 full grid, serial, no cache: engine handoff plus simulated kernel (vfs, fork/exec, spin locks); never touches cache, open-loop load or DRAM streaming",
	},
	{
		name:  "all-quick-cold",
		why:   "every experiment at -quick size, parallel sweep, empty cache: what CI and a first run do; every layer a little, plus the cache write path",
		all:   true,
		cache: freshCache,
	},
	{
		name:  "all-quick-warm",
		why:   "the same sweep replayed from a cache primed before timing: the cache read path plus the experiments that make no cache lookup",
		all:   true,
		cache: primedCache,
	},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// options returns the run options of w's sweep under seed.
func (w workload) options(seed uint64) mosbench.Options {
	return mosbench.Options{Seed: seed, Quick: w.all, Serial: !w.all}
}

// experiments lists the experiment IDs w sweeps, in run order.
func (w workload) experiments() []string {
	if !w.all {
		return []string{"fig4"}
	}
	var ids []string
	for _, e := range mosbench.Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}

// expResult is what one experiment of a sweep produced, reduced to what
// the output check needs.
type expResult struct {
	ID      string   `json:"id"`
	Digest  string   `json:"digest"`
	Points  int      `json:"points"`
	Failed  []string `json:"failed,omitempty"`
	Seconds float64  `json:"seconds"`
}

// digest fingerprints an experiment's whole output: its title, its CSV
// and its notes. Some experiments (ablate, fig12, profile, fig1, fig2,
// tbl-hw) report their figures only in the notes, and their CSV is a bare
// header. Each part is length-prefixed so that no two outputs run
// together into the same bytes.
func digest(title, csv string, notes []string) string {
	h := sha256.New()
	for _, part := range append([]string{title, csv}, notes...) {
		fmt.Fprintf(h, "%d:%s", len(part), part)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func summarize(s *mosbench.Series, d time.Duration) expResult {
	r := expResult{ID: s.ID, Digest: digest(s.Title, s.CSV(), s.Notes), Points: len(s.Point), Seconds: d.Seconds()}
	for _, f := range s.Failed {
		msg, _, _ := strings.Cut(f.Err, "\n")
		r.Failed = append(r.Failed, fmt.Sprintf("%s@%d: %s", f.Variant, f.Cores, msg))
	}
	return r
}

// sweep runs every experiment of w under o, one after another, as
// cmd/mosbench -all does. With a tracer, each experiment's Run is a span.
func sweep(w workload, o mosbench.Options, tr *tracer) ([]expResult, []*mosbench.Series, error) {
	var out []expResult
	var series []*mosbench.Series
	for _, id := range w.experiments() {
		var s *mosbench.Series
		var err error
		start := time.Now()
		run := func() { s, err = mosbench.Run(id, o) }
		if tr != nil {
			tr.do("harness.run:"+id, run)
		} else {
			run()
		}
		d := time.Since(start)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", id, err)
		}
		out = append(out, summarize(s, d))
		series = append(series, s)
	}
	return out, series, nil
}
