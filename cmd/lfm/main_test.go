package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lfm"
)

var update = flag.Bool("update", false, "rewrite the golden files from current output")

// writeBrokenTelemetry writes the telemetry fixture with one attempt's
// raw-measurement count no longer matching its series, an export that
// breaks the telemetry invariants.
func writeBrokenTelemetry(t *testing.T) string {
	t.Helper()
	f, err := os.Open("testdata/telemetry.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runs, err := lfm.ReadTelemetry(f)
	if err != nil {
		t.Fatal(err)
	}
	runs[0].Attempts[0].RawMeasurements++
	var buf bytes.Buffer
	for _, rt := range runs {
		if err := rt.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "broken.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeArchiveWithoutFinal writes the heavy-tail baseline archive with its
// final snapshot line deleted: an obs section the diff engine cannot align.
func writeArchiveWithoutFinal(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("../../baselines/heavy-tail.lfma")
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, l := range strings.SplitAfter(string(data), "\n") {
		if !strings.HasPrefix(l, `{"kind":"final"`) {
			kept = append(kept, l)
		}
	}
	if len(kept) != strings.Count(string(data), "\n") {
		t.Fatal("baseline has no single final line to delete")
	}
	path := filepath.Join(t.TempDir(), "no-final.lfma")
	if err := os.WriteFile(path, []byte(strings.Join(kept, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExitStatus drives whole command lines through run, the function
// main exits with, and checks the exit-status contract: 0 success, 1
// operational error, 2 usage, 3 verdict, and `lfm run` passing the
// monitored command's status through.
func TestExitStatus(t *testing.T) {
	dir := t.TempDir()
	pyFile := filepath.Join(dir, "app.py")
	if err := os.WriteFile(pyFile, []byte("import numpy\nimport os\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	broken := writeBrokenTelemetry(t)
	noFinal := writeArchiveWithoutFinal(t)
	missing := filepath.Join(dir, "missing")
	tarball := filepath.Join(dir, "env.tar.gz")

	cases := []struct {
		name   string
		args   []string
		want   int
		stdout string // substring the output must contain
		stderr string // substring the error output must contain
	}{
		{"no arguments", nil, 2, "", "usage: lfm"},
		{"unknown subcommand", []string{"nosuch"}, 2, "", `unknown command "nosuch"`},
		{"help", []string{"-h"}, 0, "", "subcommands:"},
		{"subcommand help", []string{"bench", "-h"}, 0, "", "usage: lfm bench"},
		{"undefined flag", []string{"bench", "-nosuch"}, 2, "", "flag provided but not defined"},
		{"diff without command", []string{"diff"}, 2, "", "lfm diff compare"},
		{"unknown scenario command", []string{"scenario", "nosuch"}, 2, "", `lfm scenario: unknown command "nosuch"`},

		{"bench list", []string{"bench", "-list"}, 0, "fig6", ""},
		{"bench sweep without output", []string{"bench", "-telemetry-sweep"}, 2, "", "-telemetry-sweep requires -telemetry-out"},

		{"report unhealthy", []string{"report", "testdata/obs.jsonl"}, 3, "verdict: UNHEALTHY", "lfm report: run is unhealthy"},
		{"report allow unhealthy", []string{"report", "-allow-unhealthy", "testdata/obs.jsonl"}, 0, "verdict: UNHEALTHY", ""},
		{"report missing input", []string{"report", missing}, 1, "", "lfm report: open"},
		{"report without input", []string{"report"}, 2, "", "usage: lfm report"},

		{"prof valid", []string{"prof", "testdata/telemetry.jsonl"}, 0, "category profiles", ""},
		{"prof breach", []string{"prof", broken}, 3, "", "breaches telemetry invariants"},
		{"prof allow breach", []string{"prof", "-allow-invalid", broken}, 0, "", "pass -allow-invalid to suppress"},
		{"prof missing input", []string{"prof", missing}, 1, "", "lfm prof: open"},

		{"trace missing input", []string{"trace", missing}, 1, "", "lfm trace: open"},
		{"diff compare missing input", []string{"diff", "compare", missing, missing}, 1, "", "lfm diff: open"},
		{"diff compare archive without final", []string{"diff", "compare", noFinal, "../../baselines/heavy-tail.lfma"}, 1, "", "archive: corrupt: obs section without a final line"},
		{"scenario replay missing input", []string{"scenario", "replay", missing}, 1, "", "lfm scenario: open"},
		{"scenario describe", []string{"scenario", "describe", "stragglers"}, 0, "invariants:", ""},

		{"run child status", []string{"run", "-q", "--", "sh", "-c", "exit 7"}, 7, "", ""},
		{"run child success", []string{"run", "-q", "--", "sh", "-c", "echo hi"}, 0, "hi", ""},
		{"run without command", []string{"run"}, 2, "", "usage: lfm run"},

		{"pydeps", []string{"pydeps", pyFile}, 0, "numpy", ""},
		{"pydeps missing input", []string{"pydeps", missing}, 1, "", "lfm pydeps: open"},

		{"envpack pack", []string{"envpack", "-o", tarball, "numpy"}, 0, "packed env", ""},
		{"envpack without specs", []string{"envpack"}, 2, "", "usage: lfm envpack"},
		{"envpack inspect missing", []string{"envpack", "-inspect", missing}, 1, "", "lfm envpack: open"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(c.args, &stdout, &stderr); got != c.want {
				t.Fatalf("lfm %s: exit %d, want %d\nstdout:\n%s\nstderr:\n%s",
					strings.Join(c.args, " "), got, c.want, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), c.stdout) {
				t.Errorf("stdout lacks %q:\n%s", c.stdout, stdout.String())
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr lacks %q:\n%s", c.stderr, stderr.String())
			}
		})
	}

	// The packed environment reads back.
	var stdout bytes.Buffer
	if got := run([]string{"envpack", "-inspect", tarball}, &stdout, &stdout); got != 0 {
		t.Fatalf("envpack -inspect: exit %d\n%s", got, stdout.String())
	}
	if !strings.Contains(stdout.String(), "numpy==") {
		t.Errorf("inspected manifest lacks numpy:\n%s", stdout.String())
	}
}
