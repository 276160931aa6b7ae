package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"lfm"
)

func readFixture(t *testing.T) *lfm.ObsStream {
	t.Helper()
	f, err := os.Open("testdata/obs.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := lfm.ReadObsStream(f)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestReportRenderGolden locks `lfm report`'s health report rendering
// against a canned obs stream captured from a deterministic churn-chaos
// run. Regenerate with `go test ./cmd/lfm -run Golden -update` after an
// intentional format change.
func TestReportRenderGolden(t *testing.T) {
	st := readFixture(t)
	health := st.Health
	if health == nil {
		health = lfm.AnalyzeObs(st.RunObs(), nil)
	}
	var buf bytes.Buffer
	renderHealth(&buf, st, health, 60)

	const golden = "testdata/report.golden"
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("render output drifted from %s (run with -update after intentional changes)\ngot:\n%s", golden, buf.String())
	}
}

// TestRenderWithoutHealthLine drops the stream's trailing health line and
// checks the report re-derives the analysis from the snapshots instead of
// rendering an empty verdict.
func TestRenderWithoutHealthLine(t *testing.T) {
	st := readFixture(t)
	st.Health = nil
	health := lfm.AnalyzeObs(st.RunObs(), nil)
	var buf bytes.Buffer
	renderHealth(&buf, st, health, 60)
	out := buf.String()
	if !strings.Contains(out, "verdict:") || !strings.Contains(out, "snapshots") {
		t.Fatalf("re-derived report missing verdict:\n%s", out)
	}
}

// TestVerdictExit locks the exit-code contract: unhealthy verdicts exit 3
// so CI catches degraded runs, -allow-unhealthy downgrades that to 0, and
// healthy runs always exit 0.
func TestVerdictExit(t *testing.T) {
	unhealthy := &lfm.RunHealth{Healthy: false}
	healthy := &lfm.RunHealth{Healthy: true}
	cases := []struct {
		name   string
		health *lfm.RunHealth
		allow  bool
		want   int
	}{
		{"unhealthy", unhealthy, false, 3},
		{"unhealthy allowed", unhealthy, true, 0},
		{"healthy", healthy, false, 0},
		{"healthy allowed", healthy, true, 0},
		{"nil health", nil, false, 0},
	}
	for _, c := range cases {
		if got := exitStatus(healthVerdict(c.health, c.allow)); got != c.want {
			t.Errorf("%s: exit status = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestFixtureVerdictExit ties the exit code to the real fixture: the canned
// churn-chaos stream carries its health verdict, and the exit status must agree
// with it rather than with some stale assumption about the fixture.
func TestFixtureVerdictExit(t *testing.T) {
	st := readFixture(t)
	health := st.Health
	if health == nil {
		health = lfm.AnalyzeObs(st.RunObs(), nil)
	}
	want := 0
	if !health.Healthy {
		want = 3
	}
	if got := exitStatus(healthVerdict(health, false)); got != want {
		t.Errorf("fixture verdict healthy=%v but exit status = %d, want %d", health.Healthy, got, want)
	}
	if got := exitStatus(healthVerdict(health, true)); got != 0 {
		t.Errorf("-allow-unhealthy must exit 0, got %d", got)
	}
}
