package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"lfm/internal/chaos"
	"lfm/internal/obs"
	"lfm/internal/serve"
	"lfm/internal/sim"
	"lfm/internal/workloads"
)

// servingRun executes one open-loop run: scale tasks (1-core, mean 20s)
// streamed by a single Poisson tenant at the given rate against
// workers four-core ND-CRC workers.
func servingRun(t *testing.T, seed int64, workers int, rate, window float64, mut func(*RunConfig)) *Outcome {
	t.Helper()
	tasks := int(rate*window)*2 + 64
	w := workloads.Scale(sim.NewRNG(seed), tasks, 8)
	s, _ := StrategyFor("auto", w)
	cfg := RunConfig{
		SiteName: "ndcrc", Workers: workers,
		WorkerCores: 4, WorkerMemoryMB: 4 * 1024, WorkerDiskMB: 8 * 1024,
		Strategy: s, Seed: seed, NoBatchLatency: true,
		Serving: &serve.Config{
			Window: sim.Time(window), MaxInflight: 128, ShedWatermark: 96,
			Tenants: []serve.TenantConfig{
				{Name: "open", Arrival: &workloads.Poisson{Rate: rate}},
			},
		},
	}
	if mut != nil {
		mut(&cfg)
	}
	out, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Serving == nil {
		t.Fatal("serving run produced no serving report")
	}
	return out
}

// TestServingValidation checks unusable serving parameters are rejected
// before the simulation starts, with errors naming the offending field.
func TestServingValidation(t *testing.T) {
	w := workloads.Scale(sim.NewRNG(1), 32, 4)
	s, _ := StrategyFor("auto", w)
	base := func() RunConfig {
		return RunConfig{
			SiteName: "ndcrc", Workers: 2, Strategy: s, Seed: 1, NoBatchLatency: true,
			Serving: &serve.Config{
				Window: 30, MaxInflight: 16,
				Tenants: []serve.TenantConfig{{Arrival: &workloads.Poisson{Rate: 1}}},
			},
		}
	}
	cases := []struct {
		mut  func(*RunConfig)
		want string
	}{
		{func(c *RunConfig) { c.Serving.Window = -1 }, "Window"},
		{func(c *RunConfig) { c.Serving.MaxInflight = 0 }, "MaxInflight"},
		{func(c *RunConfig) { c.Serving.ShedWatermark = 99 }, "ShedWatermark"},
		{func(c *RunConfig) { c.Serving.Tenants = nil }, "Tenants"},
		{func(c *RunConfig) { c.Serving.Tenants[0].Arrival = &workloads.Poisson{Rate: -2} }, "Rate"},
		{func(c *RunConfig) { c.Serving.Tenants[0].Weight = -1 }, "Weight"},
	}
	for i, tc := range cases {
		cfg := base()
		tc.mut(&cfg)
		_, err := Run(w, cfg)
		if err == nil {
			t.Fatalf("case %d: want validation error naming %s, got nil", i, tc.want)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("case %d: error %q does not name %s", i, err, tc.want)
		}
	}
}

// TestServingOverloadBoundedLatency is the headline acceptance check: at 2×
// capacity the frontend sheds the excess, keeps inflight pinned at the
// watermark, reconciles exactly, and holds accepted-work p99 latency to a
// small multiple of the at-capacity run instead of letting it run away.
func TestServingOverloadBoundedLatency(t *testing.T) {
	// 8 workers × 4 cores over mean-20s 1-core tasks ≈ 1.6 tasks/s.
	const capacity = 8 * 4 / 20.0
	at1 := servingRun(t, 11, 8, capacity, 240, nil)
	at2 := servingRun(t, 11, 8, 2*capacity, 240, nil)

	sv := at2.Serving
	if sv.Shed == 0 {
		t.Fatalf("2x capacity never shed: %+v", sv)
	}
	if sv.Rejected != 0 {
		t.Fatalf("single tenant should degrade via shedding, not hard rejects: %+v", sv)
	}
	if sv.PeakInflight > 96 {
		t.Fatalf("peak inflight %d exceeded the shed watermark 96", sv.PeakInflight)
	}
	// The exact overload-storm reconciliation from the issue: every offer
	// either completed, failed, or was shed — nothing lost, nothing stuck.
	if sv.Offered != sv.Shed+sv.Completed+sv.Failed {
		t.Fatalf("reconciliation failed: offered %d != shed %d + completed %d + failed %d",
			sv.Offered, sv.Shed, sv.Completed, sv.Failed)
	}
	p1, p2 := at1.Serving.E2E.P99, sv.E2E.P99
	if p1 <= 0 || p2 <= 0 {
		t.Fatalf("missing e2e quantiles: %g, %g", p1, p2)
	}
	if p2 > 3*p1 {
		t.Fatalf("p99 e2e latency not bounded under 2x overload: %.1fs vs %.1fs at capacity", p2, p1)
	}
}

// TestServingDeterministic checks the open-loop path is byte-deterministic
// per seed (the whole summary document, serving report included) and that
// different seeds actually produce different traffic.
func TestServingDeterministic(t *testing.T) {
	docs := map[int64]string{}
	for _, seed := range []int64{5, 6} {
		var prev []byte
		for rep := 0; rep < 2; rep++ {
			out := servingRun(t, seed, 4, 2.0, 120, nil)
			var buf bytes.Buffer
			if err := out.WriteSummaryJSON(&buf); err != nil {
				t.Fatal(err)
			}
			if rep == 0 {
				prev = buf.Bytes()
			} else if !bytes.Equal(prev, buf.Bytes()) {
				t.Fatalf("seed %d: open-loop summaries differ between identical runs", seed)
			}
		}
		docs[seed] = string(prev)
	}
	if docs[5] == docs[6] {
		t.Fatal("different seeds produced byte-identical serving runs")
	}
}

// TestServingOffLeavesOutcomeClean checks a batch run never grows serving
// artifacts: no report, no serving keys in the summary, no serving counters
// on snapshots — the serving-off path stays byte-identical to the pre-
// serving simulator.
func TestServingOffLeavesOutcomeClean(t *testing.T) {
	w := workloads.Scale(sim.NewRNG(3), 64, 4)
	s, _ := StrategyFor("auto", w)
	out, err := Run(w, RunConfig{
		SiteName: "ndcrc", Workers: 4, WorkerCores: 4,
		WorkerMemoryMB: 4 * 1024, WorkerDiskMB: 8 * 1024,
		Strategy: s, Seed: 3, NoBatchLatency: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Serving != nil {
		t.Fatal("batch run grew a serving report")
	}
	var buf bytes.Buffer
	if err := out.WriteSummaryJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"serving", "offered", "shed"} {
		if strings.Contains(buf.String(), `"`+key+`"`) {
			t.Fatalf("batch summary leaked serving key %q", key)
		}
	}
}

// TestServingSummaryJSON checks the unified summary carries the serving
// counters of an open-loop run (the lfmreport/satellite contract).
func TestServingSummaryJSON(t *testing.T) {
	out := servingRun(t, 9, 4, 3.0, 90, nil)
	var buf bytes.Buffer
	if err := out.WriteSummaryJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Serving *serve.Report `json:"serving"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Serving == nil || doc.Serving.Offered == 0 {
		t.Fatalf("summary missing serving counters: %s", buf.String()[:200])
	}
	if doc.Serving.Offered != out.Serving.Offered || doc.Serving.Accepted != out.Serving.Accepted {
		t.Fatal("summary serving counters diverge from the outcome report")
	}
}

// TestServingOverloadStormSoak drives the overload-storm chaos profile
// (tenant stampedes + churn + crashes + slow workers + flaky staging) at an
// open-loop run with full resilience: zero invariant violations, exact
// reconciliation, and every accepted task terminated.
func TestServingOverloadStormSoak(t *testing.T) {
	sched, err := chaos.Profile("overload-storm", 240)
	if err != nil {
		t.Fatal(err)
	}
	out := servingRun(t, 17, 8, 1.6, 240, func(cfg *RunConfig) {
		cfg.Resilience = fullResilience()
		cfg.Faults = sched
		// Obs on, so the final snapshot's serving counters can be
		// checked against the frontend's report below.
		cfg.Obs = &obs.Config{Cadence: 5 * sim.Second}
	})
	if out.Chaos == nil {
		t.Fatal("no chaos report")
	}
	if len(out.Chaos.Violations) != 0 {
		t.Fatalf("invariant violations under overload-storm: %v", out.Chaos.Violations)
	}
	if out.Chaos.Injected[chaos.TenantStampede] == 0 {
		t.Fatalf("no stampedes injected: %s", out.Chaos.Summary())
	}
	sv := out.Serving
	if sv.Offered != sv.Accepted+sv.Rejected+sv.Shed+sv.Throttled {
		t.Fatalf("offer pipeline leaked: %+v", sv)
	}
	if sv.Accepted != sv.Completed+sv.Failed {
		t.Fatalf("accepted work leaked: %+v", sv)
	}
	if sv.Shed == 0 {
		t.Fatalf("stampedes at capacity never triggered shedding: %+v", sv)
	}
	// The final snapshot's serving counters must agree with the frontend's
	// own report.
	fin := out.Obs.Final
	if fin == nil {
		t.Fatal("no final snapshot")
	}
	if fin.Offered != sv.Offered || fin.Shed != sv.Shed ||
		fin.Rejected != sv.Rejected || fin.Throttled != sv.Throttled {
		t.Fatalf("snapshot serving counters diverge: snapshot %d/%d/%d/%d, report %d/%d/%d/%d",
			fin.Offered, fin.Shed, fin.Rejected, fin.Throttled,
			sv.Offered, sv.Shed, sv.Rejected, sv.Throttled)
	}
}

// TestServingStampedeFairness stampedes one of two tenants: the victim's
// flood must be shed while the steady tenant keeps completing work — the
// stampede cannot starve a well-behaved neighbor.
func TestServingStampedeFairness(t *testing.T) {
	// The rate argument only sizes the shared task pool; the stampeding
	// tenant below peaks near 16 offers/s, so feed for that.
	out := servingRun(t, 29, 8, 16, 240, func(cfg *RunConfig) {
		cfg.Serving.Tenants = []serve.TenantConfig{
			{Name: "steady", Arrival: &workloads.Poisson{Rate: 0.8}},
			{Name: "victim", Arrival: &workloads.Poisson{Rate: 0.8}},
		}
		cfg.Faults = &chaos.Schedule{Faults: []chaos.Fault{
			// Stampede the second tenant 20x for most of the run.
			{Kind: chaos.TenantStampede, At: 30, Duration: 180, Factor: 20, Worker: 1},
		}}
	})
	if out.Chaos == nil || out.Chaos.Injected[chaos.TenantStampede] == 0 {
		t.Fatal("stampede was not injected")
	}
	if len(out.Chaos.Violations) != 0 {
		t.Fatalf("violations: %v", out.Chaos.Violations)
	}
	var steady, victim serve.TenantReport
	for _, tr := range out.Serving.Tenants {
		switch tr.Name {
		case "steady":
			steady = tr
		case "victim":
			victim = tr
		}
	}
	if victim.Offered <= 2*steady.Offered {
		t.Fatalf("stampede had no effect: victim offered %d vs steady %d", victim.Offered, steady.Offered)
	}
	if victim.Shed == 0 {
		t.Fatalf("stampeding tenant was never shed: %+v", victim)
	}
	if steady.Completed == 0 {
		t.Fatalf("steady tenant starved by the stampede: %+v", steady)
	}
	sFrac := float64(steady.Accepted) / float64(steady.Offered)
	vFrac := float64(victim.Accepted) / float64(victim.Offered)
	if sFrac <= vFrac {
		t.Fatalf("fair share failed under stampede: steady accept fraction %.2f <= victim %.2f", sFrac, vFrac)
	}
}
