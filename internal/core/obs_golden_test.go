package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lfm/internal/chaos"
	"lfm/internal/obs"
	"lfm/internal/serve"
	"lfm/internal/sim"
	"lfm/internal/workloads"
)

// goldenObsRun is one seeded run whose snapshot stream and unified summary
// are locked in testdata.
type goldenObsRun struct {
	w   *workloads.Workload
	cfg RunConfig
}

// goldenObsRuns are the two streams the golden test pins. "storm" is a HEP
// run under the storm chaos profile with every hardening feature on; its
// seed and tight quarantine and staging budgets are picked so the stream
// shows a quarantine, a speculative copy and worker loss. "serving" is an
// open-loop run under the overload-storm profile with a rate-limited
// tenant and a cooperative one, so all five serving counters (offered,
// shed, rejected, throttled, backpressured) move.
func goldenObsRuns(t *testing.T) map[string]goldenObsRun {
	t.Helper()
	storm, err := chaos.Profile("storm", 500)
	if err != nil {
		t.Fatal(err)
	}
	res := fullResilience()
	res.QuarantineThreshold = 2
	res.StagingRetries = 1
	hep := workloads.HEP(sim.NewRNG(27), 60)
	hepStrategy, _ := StrategyFor("auto", hep)

	overload, err := chaos.Profile("overload-storm", 120)
	if err != nil {
		t.Fatal(err)
	}
	scale := workloads.Scale(sim.NewRNG(11), 600, 8)
	scaleStrategy, _ := StrategyFor("auto", scale)
	return map[string]goldenObsRun{
		"storm": {w: hep, cfg: RunConfig{
			SiteName: "ndcrc", Workers: 6, Seed: 27, NoBatchLatency: true,
			Strategy: hepStrategy, Resilience: res, Faults: storm,
		}},
		"serving": {w: scale, cfg: RunConfig{
			SiteName: "ndcrc", Workers: 6,
			WorkerCores: 4, WorkerMemoryMB: 4 * 1024, WorkerDiskMB: 8 * 1024,
			Seed: 11, NoBatchLatency: true,
			Strategy: scaleStrategy, Resilience: fullResilience(), Faults: overload,
			Serving: &serve.Config{
				Window: 120, MaxInflight: 48, ShedWatermark: 32,
				Tenants: []serve.TenantConfig{
					{Name: "open", Arrival: &workloads.Poisson{Rate: 2}, Weight: 4},
					{Name: "limited", Arrival: &workloads.Poisson{Rate: 1}, Rate: 0.5},
					{Name: "polite", Arrival: &workloads.Poisson{Rate: 0.5}, Cooperative: true, Priority: 1},
				},
			},
		}},
	}
}

// TestObsGoldenStream reproduces the committed snapshot streams and
// summaries byte for byte. Every snapshot field is read from the master's
// and the frontend's own state when a boundary seals, so a change in what
// the bus reports, or in when it seals, shows up as a diff here.
// Regenerate with `go test ./internal/core -run ObsGolden -update` only
// after an intentional change to the stream.
func TestObsGoldenStream(t *testing.T) {
	for name, run := range goldenObsRuns(t) {
		t.Run(name, func(t *testing.T) {
			var stream, summary bytes.Buffer
			cfg := run.cfg
			cfg.Obs = &obs.Config{Cadence: 5 * sim.Second, Stream: &stream}
			out, err := Run(run.w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := out.WriteSummaryJSON(&summary); err != nil {
				t.Fatal(err)
			}
			checkObsCoverage(t, name, out)
			for _, f := range []struct {
				path string
				got  []byte
			}{
				{filepath.Join("testdata", "obs_"+name+".jsonl"), stream.Bytes()},
				{filepath.Join("testdata", "obs_"+name+"_summary.json"), summary.Bytes()},
			} {
				if *updateGolden {
					if err := os.WriteFile(f.path, f.got, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(f.path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(f.got, want) {
					t.Fatalf("%s differs from the committed golden file:\n%s", f.path, firstDiff(f.got, want))
				}
			}
		})
	}
}

// checkObsCoverage fails if a golden run no longer exercises the paths it
// was picked for, so a regenerated golden file cannot silently lose them.
func checkObsCoverage(t *testing.T, name string, out *Outcome) {
	t.Helper()
	fin := out.Obs.Final
	switch name {
	case "storm":
		spec := false
		for _, s := range out.Obs.Snapshots {
			spec = spec || s.Speculating > 0
		}
		if fin.QuarantineTrips == 0 || !spec || out.Stats.LostTasks == 0 {
			t.Fatalf("storm golden run lost coverage: quarantines=%d speculation seen=%v lost=%d",
				fin.QuarantineTrips, spec, out.Stats.LostTasks)
		}
	case "serving":
		if fin.Offered == 0 || fin.Shed == 0 || fin.Rejected == 0 || fin.Throttled == 0 || fin.Backpressured == 0 {
			t.Fatalf("serving golden run lost coverage: %+v", fin)
		}
	}
}

// firstDiff renders the first differing line of two byte streams.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return "(identical lines, different length)"
}
