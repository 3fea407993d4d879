package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runSet is a set of benchmark runs, one per (workload, seed), as the
// steady subcommand saves it.
type runSet struct {
	Host    hostInfo            `json:"host"`
	Seconds int                 `json:"seconds"`
	Trace   int                 `json:"trace"`
	Runs    map[string][]result `json:"runs"`
}

// runSteady runs the benchmark once per seed on each workload, saves the
// results and prints each metric's median, quartiles and sample count
// against the bounds in BENCHMARK.json.
func runSteady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	names := fs.String("workload", "exim-cold,all-quick-cold,all-quick-warm", "comma-separated workloads")
	seedList := fs.String("seeds", "1-10", "seeds, as a range lo-hi or a comma-separated list")
	seconds := fs.Int("seconds", 25, "--seconds of each run")
	trace := fs.Int("trace", 0, "--trace of each run")
	out := fs.String("out", "", "write the set of results as JSON to this file")
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	seeds, err := parseSeeds(*seedList)
	if err != nil {
		return err
	}
	bounds, err := loadBounds(*benchPath)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := runSet{Host: currentHost(0), Seconds: *seconds, Trace: *trace, Runs: map[string][]result{}}
	for _, name := range strings.Split(*names, ",") {
		if _, err := lookupWorkload(name); err != nil {
			return err
		}
		for _, seed := range seeds {
			cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.Itoa(*seconds), "--trace", strconv.Itoa(*trace))
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			res, perr := lastResult(stdout)
			if perr != nil {
				return fmt.Errorf("%s seed %d: %v (exit: %v)", name, seed, perr, err)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: correct=%t\n", name, seed, res.Correct)
			set.Runs[name] = append(set.Runs[name], res)
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
	}
	printSpread(set, bounds)
	return nil
}

// runCompare compares two saved sets against the bounds: every spread
// within its bound, and no median of the second set worse than
// the first's by more than the bound.
func runCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("compare takes two result sets: first.json second.json")
	}
	bounds, err := loadBounds(*benchPath)
	if err != nil {
		return err
	}
	var sets [2]runSet
	for i := range sets {
		data, err := os.ReadFile(fs.Arg(i))
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &sets[i]); err != nil {
			return fmt.Errorf("%s: %w", fs.Arg(i), err)
		}
	}
	if sets[0].Host.CPUModel != sets[1].Host.CPUModel || sets[0].Host.NProc != sets[1].Host.NProc {
		fmt.Printf("warning: the sets come from different hosts: %+v vs %+v\n", sets[0].Host, sets[1].Host)
	}
	printSpread(sets[0], bounds)
	printSpread(sets[1], bounds)
	var bad []string
	fmt.Printf("%-16s %-12s %12s %12s %8s %6s\n", "workload", "metric", "median1", "median2", "worse", "bound")
	for _, w := range workloads {
		a, b := sets[0].Runs[w.name], sets[1].Runs[w.name]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		for _, m := range endToEnd {
			bd := bounds[m.name]
			s1, s2 := summarizeMetric(a, m.name), summarizeMetric(b, m.name)
			worse := (s2.median - s1.median) / s1.median
			if m.better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > bd {
				verdict = "WORSE"
				bad = append(bad, fmt.Sprintf("%s %s median worse by %.3f > %.3f", w.name, m.name, worse, bd))
			}
			for i, s := range []stat{s1, s2} {
				if s.spread > bd {
					verdict = "WIDE"
					bad = append(bad, fmt.Sprintf("%s %s spread %.3f of set %d > %.3f", w.name, m.name, s.spread, i+1, bd))
				}
			}
			fmt.Printf("%-16s %-12s %12.5g %12.5g %8.4f %6.3f %s\n", w.name, m.name, s1.median, s2.median, worse, bd, verdict)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("the sets disagree beyond the bounds:\n  %s", strings.Join(bad, "\n  "))
	}
	fmt.Println("the sets agree within the bounds")
	return nil
}

type stat struct {
	n              int
	median, q1, q3 float64
	spread         float64 // (q3 - q1) / median
}

func summarizeMetric(runs []result, name string) stat {
	var xs []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			xs = append(xs, v.Value)
		}
	}
	s := stat{n: len(xs), median: median(xs)}
	s.q1, s.q3 = quartiles(xs)
	s.spread = math.Abs(ratio(s.q3-s.q1, s.median))
	return s
}

// printSpread prints each metric's median, quartiles and spread against
// its bound: "steady" below a third of the bound, "within" below it.
func printSpread(set runSet, bounds map[string]float64) {
	fmt.Printf("host %+v, --seconds %d, --trace %d\n", set.Host, set.Seconds, set.Trace)
	fmt.Printf("%-16s %-30s %3s %12s %12s %12s %8s %6s\n", "workload", "metric", "n", "median", "q1", "q3", "spread", "bound")
	for _, w := range workloads {
		runs := set.Runs[w.name]
		if len(runs) == 0 {
			continue
		}
		wrong := 0
		for _, r := range runs {
			if !r.Correct {
				wrong++
			}
		}
		if wrong > 0 {
			fmt.Printf("%-16s %d of %d runs reported wrong output\n", w.name, wrong, len(runs))
		}
		defs := endToEnd
		if set.Trace == 1 {
			defs = perLayer
		}
		for _, m := range defs {
			s := summarizeMetric(runs, m.name)
			verdict := ""
			if bd, ok := bounds[m.name]; ok && set.Trace == 0 {
				switch {
				case s.spread <= bd/3:
					verdict = "steady"
				case s.spread <= bd:
					verdict = "within"
				default:
					verdict = "WIDE"
				}
				fmt.Printf("%-16s %-30s %3d %12.5g %12.5g %12.5g %8.4f %6.3f %s\n", w.name, m.name, s.n, s.median, s.q1, s.q3, s.spread, bd, verdict)
				continue
			}
			fmt.Printf("%-16s %-30s %3d %12.5g %12.5g %12.5g %8.4f\n", w.name, m.name, s.n, s.median, s.q1, s.q3, s.spread)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the tools read.
type benchmarkFile struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmark(path string) (benchmarkFile, error) {
	var b benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

func loadBounds(path string) (map[string]float64, error) {
	b, err := loadBenchmark(path)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, m := range b.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// lastResult parses the result object on the last line of a run's output.
func lastResult(stdout []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var r result
	if len(last) == 0 {
		return r, errors.New("no output")
	}
	if err := json.Unmarshal(last, &r); err != nil {
		return r, fmt.Errorf("last line is not a result: %w", err)
	}
	return r, nil
}

// parseSeeds reads "lo-hi" or "a,b,c".
func parseSeeds(s string) ([]uint64, error) {
	if lo, hi, ok := strings.Cut(s, "-"); ok {
		a, err1 := strconv.ParseUint(lo, 10, 64)
		b, err2 := strconv.ParseUint(hi, 10, 64)
		if err1 != nil || err2 != nil || b < a {
			return nil, fmt.Errorf("bad seed range %q", s)
		}
		var out []uint64
		for x := a; x <= b; x++ {
			out = append(out, x)
		}
		return out, nil
	}
	var out []uint64
	for _, f := range strings.Split(s, ",") {
		x, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", f)
		}
		out = append(out, x)
	}
	return out, nil
}
