package core

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"lfm/internal/sim"
	"lfm/internal/workloads"
	"lfm/internal/wq"
)

// TestTraceBehaviorNeutral checks the tracing acceptance criterion: a traced
// run produces a byte-identical Outcome to an untraced run with the same
// seed. Span recording is passive — it must never schedule engine events or
// perturb RNG draws.
func TestTraceBehaviorNeutral(t *testing.T) {
	run := func(tr *wq.Trace) []byte {
		t.Helper()
		w := workloads.HEP(sim.NewRNG(42), 60)
		out, err := Run(w, RunConfig{
			SiteName: "ndcrc", Workers: 4, Seed: 42,
			Faults: churn(150), // churn exercises loss/retry paths too
			Trace:  tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	plain := run(nil)
	traced := run(&wq.Trace{})
	if !bytes.Equal(plain, traced) {
		t.Fatalf("traced outcome differs from untraced:\nplain:  %s\ntraced: %s", plain, traced)
	}
}

// TestCriticalPathSumsToMakespan checks that on a quiet run (instant
// provisioning, no churn) the critical path is contiguous and spans the whole
// run: its step durations sum to the makespan within float rounding.
func TestCriticalPathSumsToMakespan(t *testing.T) {
	w := workloads.HEP(sim.NewRNG(7), 40)
	tr := &wq.Trace{}
	out, err := Run(w, RunConfig{
		SiteName: "ndcrc", Workers: 4, Seed: 7, NoBatchLatency: true,
		Trace: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	cp := tr.Store().CriticalPath()
	if cp == nil {
		t.Fatal("no critical path")
	}
	const eps = 1e-6
	if math.Abs(float64(cp.Sum()-cp.Total())) > eps {
		t.Errorf("path not contiguous: steps sum to %.9f, extent %.9f",
			float64(cp.Sum()), float64(cp.Total()))
	}
	if math.Abs(float64(cp.Total()-out.Makespan)) > eps {
		t.Errorf("critical path %.9f != makespan %.9f",
			float64(cp.Total()), float64(out.Makespan))
	}
	if cp.Start != 0 {
		t.Errorf("critical path starts at %.9f, want 0", float64(cp.Start))
	}
}

// TestChurnTracePerfettoValid runs a churny workload (lost workers, retries,
// open worker spans at exit) and validates the Perfetto export is well-formed
// Chrome trace-event JSON: every event has name/ph/pid/tid, the phase is one
// we emit, and complete events carry non-negative ts/dur.
func TestChurnTracePerfettoValid(t *testing.T) {
	w := workloads.HEP(sim.NewRNG(13), 50)
	tr := &wq.Trace{}
	if _, err := Run(w, RunConfig{
		SiteName: "ndcrc", Workers: 4, Seed: 13, NoBatchLatency: true,
		Faults: churn(100),
		Trace:  tr,
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Store().WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("perfetto export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("perfetto export has no events")
	}
	var sawComplete, sawLost bool
	for i, ev := range doc.TraceEvents {
		for _, field := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event %d missing %q: %s", i, field, ev)
			}
		}
		var ph string
		if err := json.Unmarshal(ev["ph"], &ph); err != nil {
			t.Fatalf("event %d ph: %v", i, err)
		}
		switch ph {
		case "X":
			sawComplete = true
			var ts, dur float64
			if err := json.Unmarshal(ev["ts"], &ts); err != nil {
				t.Fatalf("event %d has no ts: %s", i, ev)
			}
			if err := json.Unmarshal(ev["dur"], &dur); err != nil {
				t.Fatalf("event %d has no dur: %s", i, ev)
			}
			if ts < 0 || dur < 0 {
				t.Fatalf("event %d has negative ts/dur: %s", i, ev)
			}
			var name string
			_ = json.Unmarshal(ev["name"], &name)
			if name == "attempt lost" {
				sawLost = true
			}
		case "M", "i", "s", "f":
		default:
			t.Fatalf("event %d has unexpected phase %q", i, ph)
		}
	}
	if !sawComplete {
		t.Fatal("no complete (X) events in export")
	}
	_ = sawLost // churn usually loses an attempt, but the seed decides
}
