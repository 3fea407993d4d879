// Command perfbench is the repository's end-to-end benchmark: it times
// whole figure sweeps of the MOSBENCH simulator, cold and warm-cache,
// checks that every sweep's output is bit-identical to the reference, and
// in a separate traced run decomposes the time layer by layer.
//
// Build and run it from the repository root through the wrapper, which
// keeps the Go build cache inside .bench_build:
//
//	bash perfbench/run.sh --workload exim-cold --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --workload all-quick-warm --seed 1 --seconds 25 --trace 1
//	bash perfbench/run.sh steady -workload exim-cold -seeds 1-5 -seconds 25 -out a.json
//	bash perfbench/run.sh compare a.json b.json
//	bash perfbench/run.sh reference -seeds 0-20
//
// An untraced run (--trace 0) repeats the workload in fresh processes
// until --seconds have passed (at least three times) and reports the
// median of each end-to-end metric. A traced run (--trace 1) alternates
// untraced and traced repetitions for --seconds and reports the median of
// each per-layer metric; the last traced repetition's spans and CPU
// profile stay under .bench_build/perfbench/trace. The last line of
// standard output is the JSON result; a wrong output makes it read
// "correct": false and the command exit 1.
//
// The simulator has no real-hardware reference results, only the
// paper-shape bands its own tests pin, so the benchmark reports no
// accuracy figure: the model is unvalidated against hardware.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// workDir is where runs keep caches, traces and build output, relative to
// the repository root.
const workDir = ".bench_build/perfbench"

// runLimit bounds one invocation's wall clock; repetitions stop early
// rather than run past it.
const runLimit = 150 * time.Second

// setupProbes is how many extra processes each untraced repetition starts
// that stop at the first sweep call: set-up takes milliseconds, so its
// median needs more samples than the sweeps give.
const setupProbes = 12

func main() {
	if len(os.Args) > 1 {
		sub := map[string]func([]string) error{
			"rep": runRep, "steady": runSteady, "compare": runCompare, "reference": runReference,
		}
		if f, ok := sub[os.Args[1]]; ok {
			if err := f(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				os.Exit(1)
			}
			return
		}
	}
	os.Exit(runBench(os.Args[1:]))
}

// runBench is one benchmark run; it returns the exit code.
func runBench(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: exim-cold, all-quick-cold or all-quick-warm")
	seed := fs.Uint64("seed", 1, "seed passed to Options.Seed")
	seconds := fs.Int("seconds", 25, "how long to keep repeating the measured sweep")
	trace := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err == nil && (*trace < 0 || *trace > 1) {
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	hostLine, _ := json.Marshal(map[string]hostInfo{"host": currentHost(*seed)}) // strings and ints always encode
	fmt.Println(string(hostLine))

	ws := filepath.Join(workDir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(ws)
	ctx, cancel := context.WithTimeout(context.Background(), runLimit+20*time.Second)
	defer cancel()
	digests := ref.digests(w, *seed)
	if digests == nil {
		fmt.Printf("output check: no reference digests recorded for seed %d; only checking that the run's sweeps agree\n", *seed)
	}
	r := &runner{ctx: ctx, w: w, seed: *seed, ws: ws, check: newChecker(digests), start: time.Now()}
	run := r.untraced
	if *trace == 1 {
		run = r.traced
	}
	var res result
	if err = r.prime(); err == nil {
		res, err = run(time.Duration(*seconds) * time.Second)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, p := range r.check.problems {
		fmt.Fprintln(os.Stderr, "perfbench: output check:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type runner struct {
	ctx   context.Context
	w     workload
	seed  uint64
	ws    string
	check *checker
	start time.Time
	fresh int // empty cache directories handed out
}

// rep runs one repetition in a fresh process. cacheDir is the cache the
// sweep uses ("" for none); extra holds further flags of the rep
// subcommand: -trace dir for a traced repetition, -setuponly for a
// set-up probe.
func (r *runner) rep(name, cacheDir string, extra ...string) (repResult, error) {
	self, err := os.Executable()
	if err != nil {
		return repResult{}, err
	}
	args := append([]string{"rep", "-workload", name, "-seed", strconv.FormatUint(r.seed, 10), "-cache", cacheDir}, extra...)
	t0 := time.Now()
	cmd := exec.CommandContext(r.ctx, self, append(args, "-t0", strconv.FormatInt(t0.UnixNano(), 10))...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return repResult{}, fmt.Errorf("repetition of %s: %w", name, err)
	}
	var res repResult
	if err := json.Unmarshal(out, &res); err != nil {
		return repResult{}, fmt.Errorf("repetition of %s: %w", name, err)
	}
	return res, nil
}

// prime fills the warm workload's cache with one cold sweep, untimed,
// whose outputs the warm sweeps must then reproduce byte for byte.
func (r *runner) prime() error {
	if r.w.cache != primedCache {
		return nil
	}
	prime, err := r.rep("all-quick-cold", r.cacheDir())
	if err != nil {
		return err
	}
	r.check.add("cold prime", prime.Exps)
	return nil
}

// cacheDir returns the cache directory of the next repetition: none, a
// new empty one, or the primed one.
func (r *runner) cacheDir() string {
	switch r.w.cache {
	case freshCache:
		r.fresh++
		return filepath.Join(r.ws, fmt.Sprintf("cold-%d", r.fresh))
	case primedCache:
		return filepath.Join(r.ws, "primed")
	}
	return ""
}

// repeat calls one until d has passed since the first call, and at least
// min times, unless another call would overrun the run's time limit.
func (r *runner) repeat(d time.Duration, min int, one func(i int) error) error {
	start := time.Now()
	for i := 0; ; i++ {
		t := time.Now()
		if err := one(i); err != nil {
			return err
		}
		if time.Since(r.start)+time.Since(t) > runLimit {
			return nil
		}
		if i+1 >= min && time.Since(start) >= d {
			return nil
		}
	}
}

// untraced repeats the workload for d, at least three times, and reports
// the median of each end-to-end metric.
func (r *runner) untraced(d time.Duration) (result, error) {
	cols := map[string][]float64{}
	err := r.repeat(d, 3, func(i int) error {
		rep, err := r.rep(r.w.name, r.cacheDir())
		if err != nil {
			return err
		}
		r.check.add(fmt.Sprintf("rep %d", i+1), rep.Exps)
		cols["setup_s"] = append(cols["setup_s"], rep.SetupS)
		for j := 0; j < setupProbes; j++ {
			probe, err := r.rep(r.w.name, r.cacheDir(), "-setuponly")
			if err != nil {
				return err
			}
			cols["setup_s"] = append(cols["setup_s"], probe.SetupS)
		}
		cols["sweep_s"] = append(cols["sweep_s"], rep.SweepS)
		cols["cpu_s"] = append(cols["cpu_s"], rep.CPUS)
		cols["max_rss_mb"] = append(cols["max_rss_mb"], rep.MaxRSSMB)
		return nil
	})
	if err != nil {
		return result{}, err
	}
	vals := map[string]float64{"ok_frac": r.check.okFrac()}
	fmt.Printf("workload %s: %d repetitions, %d points attempted, seed %d\n", r.w.name, len(cols["sweep_s"]), r.check.attempted, r.seed)
	for _, m := range endToEnd {
		if m.name == "ok_frac" {
			continue
		}
		vals[m.name] = median(cols[m.name])
		q1, q3 := quartiles(cols[m.name])
		fmt.Printf("  %-12s %12.4f %-5s (median of %d; q1 %.4f, q3 %.4f)\n", m.name, vals[m.name], m.unit, len(cols[m.name]), q1, q3)
	}
	return r.finish(endToEnd, vals)
}

// traced alternates untraced and traced repetitions for d, at least once
// each, and reports the median of each per-layer metric. The tracing
// overhead is the traced sweep's median time minus the untraced one's.
func (r *runner) traced(d time.Duration) (result, error) {
	traceDir := filepath.Join(workDir, "trace", fmt.Sprintf("%s-seed%d", r.w.name, r.seed))
	cols := map[string][]float64{}
	err := r.repeat(d, 1, func(i int) error {
		plain, err := r.rep(r.w.name, r.cacheDir())
		if err != nil {
			return err
		}
		r.check.add(fmt.Sprintf("untraced rep %d", i+1), plain.Exps)
		tr, err := r.rep(r.w.name, r.cacheDir(), "-trace", traceDir)
		if err != nil {
			return err
		}
		r.check.add(fmt.Sprintf("traced rep %d", i+1), tr.Exps)
		r.check.addReplay(fmt.Sprintf("traced rep %d", i+1), tr.ReplayMismatches)
		for k, v := range tr.Layer {
			cols[k] = append(cols[k], v)
		}
		for _, e := range plain.Exps {
			if e.ID == "fig4" {
				cols["fig4_s"] = append(cols["fig4_s"], e.Seconds)
			}
		}
		cols["untraced_s"] = append(cols["untraced_s"], plain.SweepS)
		cols["traced_s"] = append(cols["traced_s"], tr.SweepS)
		cols["replay_point_s"] = append(cols["replay_point_s"], tr.ReplayPointS)
		return nil
	})
	if err != nil {
		return result{}, err
	}
	vals := map[string]float64{}
	for _, m := range perLayer {
		if c, ok := cols[m.name]; ok {
			vals[m.name] = median(c)
		}
	}
	untracedS, tracedS := median(cols["untraced_s"]), median(cols["traced_s"])
	vals["trace.overhead_s"] = tracedS - untracedS
	vals["harness.point_overhead_s"] = median(cols["fig4_s"]) - median(cols["replay_point_s"])
	fmt.Printf("workload %s traced: %d traced repetitions, seed %d; spans and cpu.pprof of the last in %s\n",
		r.w.name, len(cols["traced_s"]), r.seed, traceDir)
	fmt.Printf("  median sweep: untraced %.4f s, traced %.4f s\n", untracedS, tracedS)
	if err := printSelfTimes(filepath.Join(traceDir, "spans.json")); err != nil {
		return result{}, err
	}
	for _, m := range perLayer {
		fmt.Printf("  %-30s %14.6g %-9s moves %s on %s\n", m.name, vals[m.name], m.unit, m.moves, m.on)
	}
	return r.finish(perLayer, vals)
}

// finish assembles the result line from the run's metrics and checks.
func (r *runner) finish(defs []metric, vals map[string]float64) (result, error) {
	c := r.check
	failed := min(c.failed, c.attempted)
	fmt.Printf("  failed_frac %.4f (%d of %d points failed or wrong)\n", 1-c.okFrac(), failed, c.attempted)
	metrics, err := report(defs, vals)
	if err != nil {
		return result{}, err
	}
	return result{Correct: c.ok(), Attempted: max(c.attempted, 1), Failed: failed, Metrics: metrics}, nil
}

// printSelfTimes prints the traced run's time per span name.
func printSelfTimes(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var f struct {
		Names []nameTotal `json:"by_name"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("  %-28s %5s %12s %12s\n", "span", "n", "total_s", "self_s")
	for _, n := range f.Names {
		if strings.HasPrefix(n.Name, "harness.run:") && n.Total < 50*time.Millisecond {
			continue // keep the table short: fast experiments only add rows
		}
		fmt.Printf("  %-28s %5d %12.4f %12.4f\n", n.Name, n.N, n.Total.Seconds(), n.Self.Seconds())
	}
	return nil
}
