// Command benchdiff gates two bench documents produced by cmd/ablate -json
// against each other — simulated drift and wall-clock regressions:
//
//	benchdiff -base BENCH_6.json -cur BENCH_new.json
//	benchdiff -base BENCH_6.json -cur BENCH_new.json -factor 3
//	benchdiff -base BENCH_5.json -cur BENCH_new.json -factor 0
//	benchdiff -manifest bench/manifest.json
//
// The drift gate always runs: simulated results are deterministic, so every
// row present in both documents must carry the same cycles and detail, to the
// last bit — a baseline is regenerated deliberately when a model change is
// intended. The wall gate compares only rows carrying wall_seconds (the
// benchmark tiers); -factor 0 skips it, for the ordering-only tiers whose
// rows carry none.
// Every wall row of the baseline must still exist in the current document —
// silently dropping a grid point is itself a failure — and must not exceed
// factor × its baseline wall time (default 2, absorbing runner-to-runner
// machine variance while still catching an optimization being backed out).
// The comparison table is printed either way; the exit status is non-zero on
// any regression or missing row. New rows in the current document pass
// freely: they have no baseline yet.
//
// -manifest checks the bench-gate manifest instead of diffing: every tier
// must be well-formed (artifact named, non-negative factor, and — for
// factor > 0 — a committed baseline next to the manifest that carries wall
// rows), and every committed BENCH_*.json beside the manifest must be
// referenced by some tier, so a baseline cannot silently stop being gated.
// The CI bench-smoke job loops over the same manifest to regenerate and
// gate each tier.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	var (
		base     = flag.String("base", "", "baseline bench JSON (required without -manifest)")
		cur      = flag.String("cur", "", "current bench JSON (required without -manifest)")
		factor   = flag.Float64("factor", 2, "allowed wall-time growth factor over the baseline (0: drift gate only)")
		manifest = flag.String("manifest", "", "bench-gate manifest to check for completeness instead of diffing")
	)
	flag.Parse()
	if *manifest != "" {
		if *base != "" || *cur != "" {
			fmt.Fprintln(os.Stderr, "benchdiff: -manifest excludes -base/-cur")
			os.Exit(2)
		}
		if err := checkManifest(os.Stdout, *manifest); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *base == "" || *cur == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -base and -cur are both required")
		os.Exit(2)
	}
	err := drift(os.Stdout, *base, *cur)
	if err == nil && *factor != 0 {
		err = diff(os.Stdout, *base, *cur, *factor)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(1)
	}
}

// benchManifest mirrors the bench/manifest.json schema the CI bench-smoke
// loop consumes.
type benchManifest struct {
	Schema string `json:"schema"`
	Tiers  []struct {
		Exp      string   `json:"exp"`
		Artifact string   `json:"artifact"`
		Flags    []string `json:"flags"`
		Factor   float64  `json:"factor"`
	} `json:"tiers"`
}

const manifestSchema = "repro-bench-manifest/1"

// checkManifest validates the bench-gate manifest: well-formed tiers,
// wall-carrying baselines for every gated tier, and no committed baseline
// left unreferenced.
func checkManifest(w io.Writer, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var m benchManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if m.Schema != manifestSchema {
		return fmt.Errorf("%s: schema %q, want %q", path, m.Schema, manifestSchema)
	}
	if len(m.Tiers) == 0 {
		return fmt.Errorf("%s: no tiers", path)
	}
	dir := filepath.Dir(path)
	referenced := map[string]bool{}
	var bad []string
	for i, tier := range m.Tiers {
		if tier.Exp == "" || tier.Artifact == "" {
			bad = append(bad, fmt.Sprintf("tier %d: exp and artifact are both required", i))
			continue
		}
		if tier.Factor < 0 {
			bad = append(bad, fmt.Sprintf("tier %d (%s): negative factor %v", i, tier.Exp, tier.Factor))
		}
		if referenced[tier.Artifact] {
			bad = append(bad, fmt.Sprintf("tier %d (%s): artifact %s already claimed by an earlier tier", i, tier.Exp, tier.Artifact))
		}
		referenced[tier.Artifact] = true
		verdict := "ordering-gated"
		if tier.Factor > 0 {
			verdict = fmt.Sprintf("wall-gated x%g", tier.Factor)
			baseline := filepath.Join(dir, tier.Artifact)
			rows, err := load(baseline)
			switch {
			case err != nil:
				bad = append(bad, fmt.Sprintf("tier %d (%s): baseline %s: %v", i, tier.Exp, baseline, err))
			case len(wallKeys(rows)) == 0:
				bad = append(bad, fmt.Sprintf("tier %d (%s): baseline %s carries no wall_seconds rows to gate on", i, tier.Exp, baseline))
			}
		}
		fmt.Fprintf(w, "  %-40s -> %-14s %s\n", tier.Exp, tier.Artifact, verdict)
	}
	committed, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return err
	}
	for _, f := range committed {
		if !referenced[filepath.Base(f)] {
			bad = append(bad, fmt.Sprintf("committed baseline %s is not referenced by any manifest tier", f))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d manifest check(s) failed: %s", len(bad), strings.Join(bad, "; "))
	}
	return nil
}

// benchRow is the subset of one cmd/ablate -json row benchdiff consumes (see
// benchSchema there).
type benchRow struct {
	Name        string  `json:"name"`
	Cycles      float64 `json:"cycles"`
	Detail      string  `json:"detail"`
	WallSeconds float64 `json:"wall_seconds"`
}

const benchSchema = "repro-bench/1"

// load reads a bench document into its rows, keyed "exp/name".
func load(path string) (map[string]benchRow, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep struct {
		Schema    string `json:"schema"`
		Ablations []struct {
			Exp  string     `json:"exp"`
			Rows []benchRow `json:"rows"`
		} `json:"ablations"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != benchSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, benchSchema)
	}
	rows := map[string]benchRow{}
	for _, a := range rep.Ablations {
		for _, r := range a.Rows {
			rows[a.Exp+"/"+r.Name] = r
		}
	}
	return rows, nil
}

// wallKeys returns the sorted keys of the rows that carry a wall time.
func wallKeys(rows map[string]benchRow) []string {
	var keys []string
	for k, r := range rows {
		if r.WallSeconds > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// drift compares the simulated results of the two documents: every row
// present in both must agree in cycles and detail exactly. It prints the
// drifted rows to w and returns an error naming them.
func drift(w io.Writer, basePath, curPath string) error {
	base, err := load(basePath)
	if err != nil {
		return err
	}
	cur, err := load(curPath)
	if err != nil {
		return err
	}
	var bad []string
	for k, b := range base {
		if c, ok := cur[k]; ok && (c.Cycles != b.Cycles || c.Detail != b.Detail) {
			bad = append(bad, fmt.Sprintf("%s: cycles %v detail %q vs baseline %v %q", k, c.Cycles, c.Detail, b.Cycles, b.Detail))
		}
	}
	sort.Strings(bad)
	for _, m := range bad {
		fmt.Fprintf(w, "  DRIFTED %s\n", m)
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d simulated row(s) drifted from the baseline: %s", len(bad), strings.Join(bad, "; "))
	}
	return nil
}

// diff compares the wall rows of the two documents, printing the table to w
// and returning an error describing every regression and missing row.
func diff(w io.Writer, basePath, curPath string, factor float64) error {
	if factor <= 0 {
		return fmt.Errorf("factor %v must be positive", factor)
	}
	base, err := load(basePath)
	if err != nil {
		return err
	}
	cur, err := load(curPath)
	if err != nil {
		return err
	}
	keys := wallKeys(base)
	if len(keys) == 0 {
		return fmt.Errorf("%s carries no wall_seconds rows to gate on", basePath)
	}
	var bad []string
	for _, k := range keys {
		b, c := base[k].WallSeconds, cur[k].WallSeconds
		if c <= 0 {
			fmt.Fprintf(w, "  %-52s %9.3fs  MISSING\n", k, b)
			bad = append(bad, fmt.Sprintf("%s: present in baseline, missing from current", k))
			continue
		}
		verdict := "ok"
		if c > b*factor {
			verdict = fmt.Sprintf("REGRESSED (> x%g)", factor)
			bad = append(bad, fmt.Sprintf("%s: %.3fs vs baseline %.3fs (x%.2f > x%g)", k, c, b, c/b, factor))
		}
		fmt.Fprintf(w, "  %-52s %9.3fs -> %9.3fs  x%-5.2f %s\n", k, b, c, c/b, verdict)
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d wall-time check(s) failed: %s", len(bad), strings.Join(bad, "; "))
	}
	return nil
}
