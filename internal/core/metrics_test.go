package core_test

import (
	"bytes"
	"testing"

	"lfm/internal/chaos"
	"lfm/internal/core"
	"lfm/internal/metrics"
	"lfm/internal/scenario"
	"lfm/internal/sim"
	"lfm/internal/workloads"
)

// runHEP runs the 60-analysis HEP workload on four instant workers,
// instrumented on reg when it is non-nil.
func runHEP(t *testing.T, reg *metrics.Registry, faults *chaos.Schedule) (*core.Outcome, *workloads.Workload) {
	t.Helper()
	w := workloads.HEP(sim.NewRNG(7), 60)
	s, _ := core.StrategyFor("auto", w)
	out, err := core.Run(w, core.RunConfig{
		SiteName: "ndcrc", Workers: 4, Seed: 7, NoBatchLatency: true,
		Strategy: s, Metrics: reg, Faults: faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, w
}

func TestInstrumentedRun(t *testing.T) {
	reg := metrics.NewRegistry()
	out, _ := runHEP(t, reg, nil)

	// Counters across layers agree with the master's own statistics.
	var submitted float64
	for _, c := range out.Categories {
		submitted += reg.Counter("wq_tasks_submitted_total", metrics.L("category", c.Category)).Value()
	}
	if submitted != float64(out.Stats.Submitted) {
		t.Fatalf("submitted counter = %v, stats = %d", submitted, out.Stats.Submitted)
	}
	if got := reg.Counter("lfm_runs_total").Value(); got < float64(out.Stats.Completed) {
		t.Fatalf("lfm runs = %v < completed %d", got, out.Stats.Completed)
	}
	if got := reg.Counter("cluster_provision_requests_total", metrics.L("site", "ND-CRC")).Value(); got != 4 {
		t.Fatalf("provision requests = %v", got)
	}
	if auto := reg.Counter("alloc_observations_total", metrics.L("category", "hep-ana")).Value(); auto == 0 {
		t.Fatal("auto strategy observations not counted")
	}
	// The totals the master folds in from its Stats match them exactly.
	st := out.Stats
	for name, want := range map[string]float64{
		"wq_retries_total":      float64(st.Retries),
		"wq_tasks_lost_total":   float64(st.LostTasks),
		"wq_cache_hits_total":   float64(st.CacheHits),
		"wq_cache_misses_total": float64(st.CacheMisses),
		"wq_bytes_in_total":     float64(st.BytesIn),
		"wq_bytes_out_total":    float64(st.BytesOut),
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %v, stats = %v", name, got, want)
		}
	}
	// The pool gauges end drained.
	if got := reg.Gauge("wq_cores_allocated").Value(); got != 0 {
		t.Fatalf("final cores allocated = %v", got)
	}

	// The registry exports as valid (non-empty) Prometheus text.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty exposition")
	}
}

// TestMetricsPassive checks that instrumenting a run is strictly passive:
// with a registry attached the run has the same makespan and the same
// outcome digest as without one, on a quiet run and under worker churn.
func TestMetricsPassive(t *testing.T) {
	for name, faults := range map[string]*chaos.Schedule{
		"quiet": nil,
		"churn": {ChurnMTBF: 90, ChurnReplace: true},
	} {
		t.Run(name, func(t *testing.T) {
			plain, pw := runHEP(t, nil, faults)
			inst, iw := runHEP(t, metrics.NewRegistry(), faults)
			if plain.Makespan != inst.Makespan {
				t.Fatalf("instrumentation moved the makespan: %v -> %v", plain.Makespan, inst.Makespan)
			}
			pd, err := scenario.OutcomeDigest(plain, pw.Tasks)
			if err != nil {
				t.Fatal(err)
			}
			id, err := scenario.OutcomeDigest(inst, iw.Tasks)
			if err != nil {
				t.Fatal(err)
			}
			if pd != id {
				t.Fatalf("instrumentation changed the outcome: digest %s -> %s", pd, id)
			}
		})
	}
}
