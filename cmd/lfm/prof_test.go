package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"lfm"
)

// TestProfRenderGolden locks `lfm prof`'s report rendering against a
// canned telemetry fixture: the simulation is deterministic, so the
// rendered text must be byte-stable. Regenerate with
// `go test ./cmd/lfm -run Golden -update` after an intentional format
// change.
func TestProfRenderGolden(t *testing.T) {
	f, err := os.Open("testdata/telemetry.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runs, err := lfm.ReadTelemetry(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("fixture holds %d runs, want 1", len(runs))
	}
	var buf bytes.Buffer
	renderTelemetry(&buf, runs[0], 60)

	const golden = "testdata/prof.golden"
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

// TestCheckRunsFixture verifies the committed fixture satisfies the
// telemetry invariants (so `lfm prof` exits 0 on it), and that a tampered
// export — a raw-measurement count the series no longer accounts for —
// trips checkRuns, which is what drives the exit-3 path.
func TestCheckRunsFixture(t *testing.T) {
	f, err := os.Open("testdata/telemetry.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runs, err := lfm.ReadTelemetry(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRuns(runs); err != nil {
		t.Fatalf("fixture breaches invariants: %v", err)
	}
	if len(runs) == 0 || len(runs[0].Attempts) == 0 {
		t.Fatal("fixture has no attempts to tamper with")
	}
	runs[0].Attempts[0].RawMeasurements++
	err = checkRuns(runs)
	if err == nil {
		t.Fatal("tampered export passed checkRuns")
	}
	if !strings.Contains(err.Error(), "invariants") {
		t.Errorf("breach error %q does not name the invariants", err)
	}
}
