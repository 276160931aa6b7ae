package core

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"lfm/internal/chaos"
	"lfm/internal/obs"
	"lfm/internal/sim"
	"lfm/internal/tseries"
	"lfm/internal/workloads"
	"lfm/internal/wq"
)

// TestObsBehaviorNeutral checks the plane's hard invariant: with
// RunConfig.Obs set, the Outcome and the trace are byte-identical to an
// obs-off run — observation is strictly passive. The run is deliberately
// hostile (chaos storm + full resilience) so the hooks on every loss,
// cancellation, quarantine, and retry path are exercised.
func TestObsBehaviorNeutral(t *testing.T) {
	run := func(ocfg *obs.Config) (outcome, trace []byte) {
		t.Helper()
		w := workloads.HEP(sim.NewRNG(31), 60)
		s, _ := StrategyFor("auto", w)
		sched, err := chaos.Profile("storm", 500)
		if err != nil {
			t.Fatal(err)
		}
		tr := &wq.Trace{}
		out, err := Run(w, RunConfig{
			SiteName: "ndcrc", Workers: 6, Seed: 31, NoBatchLatency: true,
			Strategy: s, Resilience: fullResilience(), Faults: sched,
			Trace: tr, Obs: ocfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		ob, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		var tb bytes.Buffer
		if err := tr.Store().WriteJSON(&tb); err != nil {
			t.Fatal(err)
		}
		return ob, tb.Bytes()
	}
	bareOut, bareTr := run(nil)
	var stream bytes.Buffer
	obsOut, obsTr := run(&obs.Config{Cadence: 5 * sim.Second, Stream: &stream})
	if !bytes.Equal(bareOut, obsOut) {
		t.Fatalf("obs run outcome differs from bare:\nbare: %s\nobs:  %s", bareOut, obsOut)
	}
	if !bytes.Equal(bareTr, obsTr) {
		t.Fatal("obs perturbed the trace")
	}
	if stream.Len() == 0 {
		t.Fatal("obs run streamed nothing")
	}
}

// TestObsStreamDeterministic checks the other half of the invariant: two
// same-seed runs with obs enabled emit byte-identical JSONL streams
// (including the trailing health line).
func TestObsStreamDeterministic(t *testing.T) {
	export := func() []byte {
		w := workloads.DrugScreen(sim.NewRNG(17), 10)
		s, _ := StrategyFor("auto", w)
		sched, err := chaos.Profile("churn", 400)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		out, err := Run(w, RunConfig{
			SiteName: "ndcrc", Workers: 4, Seed: 17, NoBatchLatency: true,
			Strategy: s, Resilience: fullResilience(), Faults: sched,
			Obs: &obs.Config{Cadence: 2 * sim.Second, Stream: &buf},
		})
		if err != nil {
			t.Fatal(err)
		}
		if out.Obs == nil || out.Health == nil {
			t.Fatal("obs run missing Outcome.Obs or Outcome.Health")
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed obs streams differ")
	}
	// The stream must round-trip through the reader, carrying every piece.
	st, err := obs.ReadStream(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if st.Final == nil || st.Health == nil || len(st.Snapshots) == 0 {
		t.Fatalf("round-tripped stream incomplete: final=%v health=%v snapshots=%d",
			st.Final != nil, st.Health != nil, len(st.Snapshots))
	}
	if st.Meta.Seed != 17 || st.Meta.Strategy != "Auto" {
		t.Fatalf("stream meta wrong: %+v", st.Meta)
	}
}

// TestObsChaosSoakConsistency drives fault profiles over an obs-enabled run
// and relies on the invariant checker reporting zero violations. The final
// snapshot must agree with the outcome's own books.
func TestObsChaosSoakConsistency(t *testing.T) {
	for _, profile := range []string{"churn", "storm", "blackout"} {
		t.Run(profile, func(t *testing.T) {
			w := workloads.HEP(sim.NewRNG(5), 70)
			s, _ := StrategyFor("auto", w)
			sched, err := chaos.Profile(profile, 600)
			if err != nil {
				t.Fatal(err)
			}
			out, err := Run(w, RunConfig{
				SiteName: "ndcrc", Workers: 6, Seed: 5, NoBatchLatency: true,
				Strategy: s, Resilience: fullResilience(), Faults: sched,
				Obs: &obs.Config{Cadence: 5 * sim.Second},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(out.Chaos.Violations) != 0 {
				t.Fatalf("violations under %s: %v", profile, out.Chaos.Violations)
			}
			fin := out.Obs.Final
			if fin == nil {
				t.Fatal("no final snapshot")
			}
			if fin.Submitted != out.Stats.Submitted ||
				fin.Completed != out.Stats.Completed ||
				fin.Failed != out.Stats.Failed {
				t.Fatalf("final snapshot books diverge: snapshot %d/%d/%d, stats %d/%d/%d",
					fin.Submitted, fin.Completed, fin.Failed,
					out.Stats.Submitted, out.Stats.Completed, out.Stats.Failed)
			}
			if fin.QueueDepth != 0 || fin.Running != 0 || fin.Speculating != 0 {
				t.Fatalf("final snapshot not quiescent: queue=%d running=%d spec=%d",
					fin.QueueDepth, fin.Running, fin.Speculating)
			}
			if fin.At != out.Makespan {
				t.Fatalf("final snapshot at %v, makespan %v", fin.At, out.Makespan)
			}
		})
	}
}

// TestObsLatencyQuantiles checks the recorded latency distributions are
// sane on a quiet run: every completed task contributes to both histograms
// and the quantiles are ordered.
func TestObsLatencyQuantiles(t *testing.T) {
	w := workloads.HEP(sim.NewRNG(9), 50)
	s, _ := StrategyFor("auto", w)
	out, err := Run(w, RunConfig{
		SiteName: "ndcrc", Workers: 4, Seed: 9, NoBatchLatency: true,
		Strategy: s, Obs: &obs.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	fin := out.Obs.Final
	if got, want := int(fin.SchedLatency.Count), out.Stats.Submitted; got != want {
		t.Fatalf("sched latency count %d != submitted %d", got, want)
	}
	if got, want := int(fin.E2ELatency.Count), out.Stats.Completed; got != want {
		t.Fatalf("e2e latency count %d != completed %d", got, want)
	}
	for _, q := range []obs.LatencyQuantiles{fin.SchedLatency, fin.E2ELatency} {
		if !(q.P50 <= q.P99 && q.P99 <= q.P999 && q.P999 <= q.Max+1e-9) {
			t.Fatalf("quantiles out of order: %+v", q)
		}
	}
	if fin.E2ELatency.P50 <= 0 {
		t.Fatalf("e2e p50 should be positive, got %v", fin.E2ELatency.P50)
	}
	if len(fin.Categories) == 0 {
		t.Fatal("no per-category latency aggregates")
	}
	var catE2E uint64
	for _, c := range fin.Categories {
		catE2E += c.E2E.Count
	}
	if catE2E != fin.E2ELatency.Count {
		t.Fatalf("category e2e counts sum to %d, pool has %d", catE2E, fin.E2ELatency.Count)
	}
	if out.Health == nil {
		t.Fatal("no health report")
	}
}

// TestObsRingBounded checks the ring decimates rather than grow: a long run
// at fine cadence retains at most RingCap snapshots spanning the whole
// timeline, while Boundaries counts every sealed cadence.
func TestObsRingBounded(t *testing.T) {
	w := workloads.HEP(sim.NewRNG(3), 60)
	s, _ := StrategyFor("auto", w)
	out, err := Run(w, RunConfig{
		SiteName: "ndcrc", Workers: 2, Seed: 3, NoBatchLatency: true,
		Strategy: s,
		Obs:      &obs.Config{Cadence: 100 * sim.Millisecond, RingCap: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	ro := out.Obs
	if len(ro.Snapshots) >= 16 {
		t.Fatalf("ring grew to %d, cap 16", len(ro.Snapshots))
	}
	if ro.Boundaries <= len(ro.Snapshots) {
		t.Fatalf("expected decimation: %d boundaries, %d retained", ro.Boundaries, len(ro.Snapshots))
	}
	if ro.Stride < 2 {
		t.Fatalf("stride %d, expected decimation to have doubled it", ro.Stride)
	}
	for i := 1; i < len(ro.Snapshots); i++ {
		if ro.Snapshots[i].At <= ro.Snapshots[i-1].At {
			t.Fatal("retained snapshots out of order")
		}
	}
}

// TestWriteSummaryJSON checks the unified summary document carries every
// enabled subsystem's numbers and is deterministic for a seed.
func TestWriteSummaryJSON(t *testing.T) {
	export := func() []byte {
		w := workloads.HEP(sim.NewRNG(13), 40)
		s, _ := StrategyFor("auto", w)
		sched, err := chaos.Profile("churn", 300)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Run(w, RunConfig{
			SiteName: "ndcrc", Workers: 4, Seed: 13, NoBatchLatency: true,
			Strategy: s, Resilience: fullResilience(), Faults: sched,
			Telemetry: tseries.DefaultConfig(),
			Obs:       &obs.Config{Cadence: 2 * sim.Second},
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := out.WriteSummaryJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed summaries differ")
	}
	var s RunSummary
	if err := json.Unmarshal(a, &s); err != nil {
		t.Fatal(err)
	}
	if s.Sched == nil || s.Sched.Passes == 0 {
		t.Fatal("summary missing scheduler work counters")
	}
	if s.Waste == nil || s.Waste.ProvisionedCoreSeconds <= 0 {
		t.Fatal("summary missing telemetry waste totals")
	}
	if s.Obs == nil || s.Obs.E2ELatency.Count == 0 {
		t.Fatal("summary missing obs latency quantiles")
	}
	if s.Health == nil {
		t.Fatal("summary missing health report")
	}
	if s.Chaos == nil || len(s.Chaos.Injected) == 0 {
		t.Fatal("summary missing chaos report")
	}
	if s.Makespan <= 0 || s.Stats.Submitted != s.TaskCount {
		t.Fatalf("summary headline numbers wrong: %+v", s)
	}
}

// TestObsValidation checks the new config validation: non-finite or
// negative cadences fail fast with clear errors instead of hanging or
// silently defaulting.
func TestObsValidation(t *testing.T) {
	w := workloads.HEP(sim.NewRNG(1), 5)
	base := RunConfig{SiteName: "ndcrc", Workers: 2, Seed: 1, NoBatchLatency: true}

	for name, cad := range map[string]sim.Time{
		"negative": -1,
		"nan":      sim.Time(math.NaN()),
		"inf":      sim.Time(math.Inf(1)),
	} {
		cfg := base
		cfg.Obs = &obs.Config{Cadence: cad}
		if _, err := Run(w, cfg); err == nil {
			t.Errorf("cadence %s: expected error", name)
		} else if !strings.Contains(err.Error(), "cadence") {
			t.Errorf("cadence %s: unhelpful error %v", name, err)
		}
	}
	{
		cfg := base
		cfg.Obs = &obs.Config{RingCap: -4}
		if _, err := Run(w, cfg); err == nil {
			t.Error("negative ring cap: expected error")
		}
	}
	// Zero stays valid and means "default".
	cfg := base
	cfg.Obs = &obs.Config{}
	if _, err := Run(w, cfg); err != nil {
		t.Fatalf("zero knobs should default, got %v", err)
	}
}
