package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"lfm"
)

// cmdScenario drives the canned scenario suite — the repo's regression
// gate — and the bit-exact trace replay machinery.
//
// `run` executes scenarios and prints each invariant's verdict, exiting 3
// if any fails (`-archive` also writes the run's archive for `lfm diff`,
// scheduler event stream included). `record` captures a scenario run as a
// versioned JSONL trace; `replay` re-runs a trace byte-identically and
// fails on outcome-digest divergence. `export` runs the whole suite and
// renders the scenario catalog and regression tables; with `-refresh` it
// splices them between the marker comments in README.md and
// EXPERIMENTS.md, which is how those sections are generated (CI
// regenerates and fails on drift).
func cmdScenario(args []string, stdout, stderr io.Writer) error {
	return dispatch("lfm scenario", scenarioUsage, map[string]handler{
		"list":     scenarioList,
		"describe": scenarioDescribe,
		"run":      scenarioRun,
		"record":   scenarioRecord,
		"replay":   scenarioReplay,
		"export":   scenarioExport,
	}, args, stdout, stderr)
}

const scenarioUsage = `usage:
  lfm scenario list
  lfm scenario describe NAME
  lfm scenario run NAME [-seed N] [-json FILE] [-archive FILE]
  lfm scenario run -all [-json FILE]
  lfm scenario record NAME [-seed N] -o TRACE [-summary FILE]
  lfm scenario replay TRACE [-summary FILE]
  lfm scenario export [-refresh] [-readme FILE] [-experiments FILE] [-json FILE]
`

func scenarioList(args []string, stdout, stderr io.Writer) error {
	if _, err := parseArgs(newFlags("lfm scenario list", stderr), args); err != nil {
		return err
	}
	for _, s := range lfm.AllScenarios() {
		fmt.Fprintf(stdout, "%-18s %s\n", s.Name, s.Summary)
	}
	return nil
}

func scenarioDescribe(args []string, stdout, stderr io.Writer) error {
	pos, err := parseArgs(newFlags("lfm scenario describe", stderr), args)
	if err != nil {
		return err
	}
	if len(pos) != 1 {
		return fmt.Errorf("describe needs exactly one scenario name")
	}
	s, err := lfm.ScenarioByName(pos[0])
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s — %s\n\n", s.Name, s.Summary)
	fmt.Fprintf(stdout, "%s\n\n", s.Details)
	fmt.Fprintf(stdout, "default seed:    %d\n", s.Seed)
	fmt.Fprintf(stdout, "headline metric: %s\n", s.Headline)
	fmt.Fprintln(stdout, "invariants:")
	for _, iv := range s.Invariants {
		fmt.Fprintf(stdout, "  %-28s %s\n", iv.Name, iv.Detail)
	}
	return nil
}

// runOne executes a scenario and prints its verdict block.
func runOne(s *lfm.Scenario, seed int64, stdout io.Writer) (*lfm.ScenarioResult, error) {
	r, err := s.Run(seed)
	if err != nil {
		return nil, err
	}
	printResult(stdout, r)
	return r, nil
}

// runArchived executes a scenario with the observability plane and a
// scheduler trace attached and writes its run archive (event stream
// included, so `lfm diff explain` can bisect it).
func runArchived(s *lfm.Scenario, seed int64, path string, stdout io.Writer) (*lfm.ScenarioResult, error) {
	r, arch, err := lfm.RunScenarioArchived(s, lfm.ScenarioArchiveOptions{Seed: seed, Events: true})
	if err != nil {
		return nil, err
	}
	data, err := lfm.WriteRunArchive(arch)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	printResult(stdout, r)
	fmt.Fprintf(stdout, "  archive -> %s (%d bytes, %d events)\n", path, len(data), len(arch.Events))
	return r, nil
}

// printResult prints one scenario result's verdict block.
func printResult(w io.Writer, r *lfm.ScenarioResult) {
	verdict := "PASS"
	if !r.Passed {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "%-18s %s  (seed %d)\n", r.Scenario, verdict, r.Seed)
	for _, m := range r.Metrics {
		unit := m.Unit
		if unit != "" {
			unit = " " + unit
		}
		fmt.Fprintf(w, "    %-26s %g%s\n", m.Name, m.Value, unit)
	}
	for _, iv := range r.Invariants {
		mark := "ok  "
		if !iv.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(w, "  %s %-28s %s\n", mark, iv.Name, iv.Detail)
		if !iv.OK {
			fmt.Fprintf(w, "       -> %s\n", iv.Error)
		}
	}
}

func scenarioRun(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("lfm scenario run", stderr)
	all := fs.Bool("all", false, "run every canned scenario")
	seed := fs.Int64("seed", 0, "override the scenario's default seed (single-scenario runs only)")
	jsonOut := fs.String("json", "", "write the results array as JSON to this file")
	archive := fs.String("archive", "", "write the run's archive (with the scheduler event stream, for lfm diff) to this file; single-scenario runs only")
	pos, err := parseArgs(fs, args)
	if err != nil {
		return err
	}

	var results []*lfm.ScenarioResult
	switch {
	case *all:
		if len(pos) != 0 {
			return fmt.Errorf("run -all takes no scenario names")
		}
		if *archive != "" {
			return fmt.Errorf("run -archive needs a single scenario name")
		}
		for _, s := range lfm.AllScenarios() {
			r, err := runOne(s, 0, stdout)
			if err != nil {
				return err
			}
			results = append(results, r)
		}
	case len(pos) == 1:
		s, err := lfm.ScenarioByName(pos[0])
		if err != nil {
			return err
		}
		var r *lfm.ScenarioResult
		if *archive != "" {
			r, err = runArchived(s, *seed, *archive, stdout)
		} else {
			r, err = runOne(s, *seed, stdout)
		}
		if err != nil {
			return err
		}
		results = append(results, r)
	default:
		return fmt.Errorf("run needs a scenario name or -all")
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, stdout, results); err != nil {
			return err
		}
	}
	failed := 0
	for _, r := range results {
		if !r.Passed {
			failed++
		}
	}
	if failed > 0 {
		return verdictf("%d of %d scenarios failed their invariants", failed, len(results))
	}
	fmt.Fprintf(stdout, "%d scenario(s) passed\n", len(results))
	return nil
}

func scenarioRecord(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("lfm scenario record", stderr)
	seed := fs.Int64("seed", 0, "override the scenario's default seed")
	out := fs.String("o", "", "trace output file (required)")
	summary := fs.String("summary", "", "also write the recording run's summary JSON here")
	pos, err := parseArgs(fs, args)
	if err != nil {
		return err
	}
	if len(pos) != 1 || *out == "" {
		return fmt.Errorf("record needs a scenario name and -o TRACE")
	}
	s, err := lfm.ScenarioByName(pos[0])
	if err != nil {
		return err
	}
	r, data, err := s.Record(*seed, nil)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	if *summary != "" {
		if err := writeTo(*summary, stdout, r.Outcome.WriteSummaryJSON); err != nil {
			return err
		}
	}
	verdict := "PASS"
	if !r.Passed {
		verdict = "FAIL"
	}
	fmt.Fprintf(stdout, "recorded %s (seed %d, %s) -> %s (%d bytes)\n",
		r.Scenario, r.Seed, verdict, *out, len(data))
	if !r.Passed {
		return verdictf("scenario %s failed its invariants during recording", r.Scenario)
	}
	return nil
}

func scenarioReplay(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("lfm scenario replay", stderr)
	// -verify is the historical spelling; divergence now always fails
	// (printing DIVERGED and exiting 0 buried determinism breaks).
	fs.Bool("verify", false, "deprecated no-op: replay always verifies the recorded outcome digest")
	summary := fs.String("summary", "", "write the replayed run's summary JSON here")
	pos, err := parseArgs(fs, args)
	if err != nil {
		return err
	}
	if len(pos) != 1 {
		return fmt.Errorf("replay needs exactly one trace file")
	}
	data, err := os.ReadFile(pos[0])
	if err != nil {
		return err
	}
	ro, err := lfm.ReplayScenarioTrace(data, nil)
	if err != nil {
		return err
	}
	if *summary != "" {
		if err := writeTo(*summary, stdout, ro.Outcome.WriteSummaryJSON); err != nil {
			return err
		}
	}
	match := "MATCH"
	if ro.Digest != ro.RecordedDigest {
		match = "DIVERGED"
	}
	fmt.Fprintf(stdout, "replayed %s (%s, %d tasks): digest %s\n",
		ro.Header.Scenario, ro.Header.Workload, len(ro.Workload.Tasks), match)
	fmt.Fprintf(stdout, "  recorded %s\n  replayed %s\n", ro.RecordedDigest, ro.Digest)
	if err := ro.Verify(); err != nil {
		return verdictError(err.Error())
	}
	return nil
}

func scenarioExport(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("lfm scenario export", stderr)
	refresh := fs.Bool("refresh", false, "splice the generated tables into the docs instead of printing them")
	readme := fs.String("readme", "README.md", "file holding the scenario catalog markers")
	experiments := fs.String("experiments", "EXPERIMENTS.md", "file holding the regression table markers")
	jsonOut := fs.String("json", "", "write the results array as JSON to this file")
	if _, err := parseArgs(fs, args); err != nil {
		return err
	}

	var results []*lfm.ScenarioResult
	for _, s := range lfm.AllScenarios() {
		r, err := s.Run(0)
		if err != nil {
			return err
		}
		results = append(results, r)
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, stdout, results); err != nil {
			return err
		}
	}
	catalog := lfm.ScenarioCatalog()
	table := lfm.ScenarioRegressionTable(results)
	if !*refresh {
		fmt.Fprintln(stdout, "## Scenario catalog")
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, catalog)
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "## Scenario regression table")
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, table)
		return nil
	}
	changedReadme, err := lfm.RefreshScenarioSection(*readme, lfm.ScenarioCatalogBegin, lfm.ScenarioCatalogEnd, catalog)
	if err != nil {
		return err
	}
	changedExp, err := lfm.RefreshScenarioSection(*experiments, lfm.ScenarioRegressionBegin, lfm.ScenarioRegressionEnd, table)
	if err != nil {
		return err
	}
	status := func(changed bool) string {
		if changed {
			return "updated"
		}
		return "up to date"
	}
	fmt.Fprintf(stdout, "%s: %s\n%s: %s\n", *readme, status(changedReadme), *experiments, status(changedExp))
	failed := []string{}
	for _, r := range results {
		if !r.Passed {
			failed = append(failed, r.Scenario)
		}
	}
	if len(failed) > 0 {
		return verdictf("scenarios failed while exporting: %s", strings.Join(failed, ", "))
	}
	return nil
}
