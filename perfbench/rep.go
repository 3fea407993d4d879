package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"syscall"
	"time"

	"repro/mosbench"
)

// repResult is what one repetition reports to the parent process: one
// set-up and one sweep of a workload in a fresh process.
type repResult struct {
	SetupS   float64     `json:"setup_s"`
	SweepS   float64     `json:"sweep_s"`
	CPUS     float64     `json:"cpu_s"`
	MaxRSSMB float64     `json:"max_rss_mb"`
	Exps     []expResult `json:"experiments"`
	// Traced repetitions only: per-layer metrics measured in the child,
	// the summed replayed point spans, and replayed points that differ
	// from the points the harness produced.
	Layer            map[string]float64 `json:"layer,omitempty"`
	ReplayPointS     float64            `json:"replay_point_s,omitempty"`
	ReplayMismatches []string           `json:"replay_mismatches,omitempty"`
}

// runRep is the child process of one repetition. Set-up time runs from
// -t0, taken by the parent just before it started this process, to the
// first sweep call, so it covers exec, package init (fingerprints, the
// experiment registry), flag parsing, and cache open and load.
func runRep(args []string) error {
	fs := flag.NewFlagSet("rep", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "seed passed to Options.Seed")
	cacheDir := fs.String("cache", "", "sweep-point cache directory (none when empty)")
	t0 := fs.Int64("t0", 0, "parent's wall clock (Unix ns) just before starting this process")
	traceDir := fs.String("trace", "", "run traced and write spans and a CPU profile to this directory")
	setupOnly := fs.Bool("setuponly", false, "stop at the first sweep call, reporting only set-up time")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	o := w.options(*seed)
	var res repResult
	if *traceDir != "" {
		res, err = runTraced(w, o, *cacheDir, *traceDir)
	} else {
		res, err = runUntraced(w, o, *cacheDir, time.Unix(0, *t0), *setupOnly)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

func runUntraced(w workload, o mosbench.Options, cacheDir string, t0 time.Time, setupOnly bool) (repResult, error) {
	var c *mosbench.Cache
	if cacheDir != "" {
		var err error
		if c, err = mosbench.OpenCache(cacheDir); err != nil {
			return repResult{}, err
		}
		o.Cache = c
	}
	start := time.Now()
	if setupOnly {
		return repResult{SetupS: start.Sub(t0).Seconds()}, nil
	}
	ru0, err := rusage()
	if err != nil {
		return repResult{}, err
	}
	exps, _, err := sweep(w, o, nil)
	if err != nil {
		return repResult{}, err
	}
	if c != nil {
		if err := c.Save(); err != nil {
			return repResult{}, err
		}
	}
	sweepS := time.Since(start).Seconds()
	ru1, err := rusage()
	if err != nil {
		return repResult{}, err
	}
	return repResult{
		SetupS:   start.Sub(t0).Seconds(),
		SweepS:   sweepS,
		CPUS:     cpuSeconds(ru1) - cpuSeconds(ru0),
		MaxRSSMB: float64(ru1.Maxrss) / 1024, // Linux reports KiB
		Exps:     exps,
	}, nil
}

func rusage() (syscall.Rusage, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return ru, fmt.Errorf("getrusage: %w", err)
	}
	return ru, nil
}

func cpuSeconds(ru syscall.Rusage) float64 {
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
