package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
)

// runReference recomputes reference.json: the output digest of fig4 at
// full budgets and of every experiment at -quick size, for each seed. Run it
// only when a change is meant to alter the figures, and say so.
func runReference(args []string) error {
	fs := flag.NewFlagSet("reference", flag.ContinueOnError)
	seedList := fs.String("seeds", "0-20", "seeds to record, as a range lo-hi or a comma-separated list")
	out := fs.String("out", "perfbench/reference.json", "file to write")
	if err := fs.Parse(args); err != nil {
		return err
	}
	seeds, err := parseSeeds(*seedList)
	if err != nil {
		return err
	}
	exim, err := lookupWorkload("exim-cold")
	if err != nil {
		return err
	}
	quick, err := lookupWorkload("all-quick-cold")
	if err != nil {
		return err
	}
	ref := referenceFile{Fig4Full: map[string]string{}, Quick: map[string]map[string]string{}}
	for _, seed := range seeds {
		key := strconv.FormatUint(seed, 10)
		full, _, err := sweep(exim, exim.options(seed), nil)
		if err != nil {
			return err
		}
		ref.Fig4Full[key] = full[0].Digest
		exps, _, err := sweep(quick, quick.options(seed), nil)
		if err != nil {
			return err
		}
		ref.Quick[key] = map[string]string{}
		for _, e := range append(full, exps...) {
			if len(e.Failed) > 0 {
				return fmt.Errorf("seed %d: %s has failed points %v; not recording a reference", seed, e.ID, e.Failed)
			}
		}
		for _, e := range exps {
			ref.Quick[key][e.ID] = e.Digest
		}
		fmt.Fprintf(os.Stderr, "seed %d recorded\n", seed)
	}
	data, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(*out, append(data, '\n'), 0o644)
}
