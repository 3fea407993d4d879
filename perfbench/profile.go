package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// profileModules are the buckets a CPU profile's self time is split into.
// Every repro/internal package with its own bucket is named after it; the
// other internal packages, the standard library outside the runtime, and
// the benchmark itself fall into "other".
var profileModules = []string{
	"sim", "mem", "vfs", "slock", "mm", "proc", "netsim", "load",
	"kernel", "apps", "harness", "runtime", "other",
}

// moduleOf maps a profiled function's full name to its bucket.
func moduleOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "repro/internal/"):
		pkg := strings.TrimPrefix(fn, "repro/internal/")
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, m := range profileModules {
			if m == pkg {
				return m
			}
		}
	case strings.HasPrefix(fn, "repro/mosbench."):
		return "harness"
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// profileShares reads a CPU profile written by runtime/pprof with the
// toolchain's `go tool pprof -top` and returns each bucket's share of the
// samples, by the function each sample was taken in (its flat, or self,
// time), plus the sample count.
func profileShares(path string) (map[string]float64, int, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-sample_index=samples",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", path)
	// pprof keeps fetched profiles under PPROF_TMPDIR; keep it beside the file.
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(path))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof %s: %w: %s", path, err, strings.TrimSpace(stderr.String()))
	}
	return parseTop(out)
}

// parseTop reads `go tool pprof -top -sample_index=samples` output: a
// header, then one row per function of the columns flat, flat%, sum%,
// cum, cum% and the function's name, which inlined functions suffix with
// " (inline)".
func parseTop(out []byte) (map[string]float64, int, error) {
	counts := map[string]float64{}
	var total float64
	rows := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !rows {
			rows = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			return nil, 0, fmt.Errorf("pprof -top row %q", sc.Text())
		}
		flat, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return nil, 0, fmt.Errorf("pprof -top row %q: %w", sc.Text(), err)
		}
		name := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		counts[moduleOf(name)] += flat
		total += flat
	}
	if !rows {
		return nil, 0, errors.New("pprof -top printed no table")
	}
	shares := map[string]float64{}
	for _, m := range profileModules {
		shares[m] = ratio(counts[m], total)
	}
	return shares, int(total), nil
}
