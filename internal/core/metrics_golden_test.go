package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lfm/internal/chaos"
	"lfm/internal/metrics"
	"lfm/internal/sim"
	"lfm/internal/workloads"
	"lfm/internal/wq"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden registry exports from current output")

// goldenMetricsRuns are the instrumented runs whose Prometheus exports are
// locked in testdata: the lfmbench -metrics-out HEP point, and the same
// point under the storm chaos profile with every hardening feature on. The
// storm run's seed and its tight staging-retry and quarantine budgets are
// picked so that every resilience counter (speculation launched, won and
// cancelled; staging retries and failures; quarantines) is non-zero.
func goldenMetricsRuns() map[string]RunConfig {
	base := RunConfig{
		SiteName: "ndcrc", Workers: 20,
		WorkerCores: 4, WorkerMemoryMB: 4 * 1024, WorkerDiskMB: 8 * 1024,
		Seed: 7, NoBatchLatency: true,
	}
	storm, err := chaos.Profile("storm", 10*sim.Minute)
	if err != nil {
		panic(err)
	}
	stormy := base
	stormy.Seed = 32
	stormy.Faults = storm
	stormy.Resilience = wq.ResilienceConfig{
		HeartbeatInterval:     10,
		SpeculationMultiplier: 2,
		QuarantineThreshold:   2,
		StagingRetries:        1,
	}
	return map[string]RunConfig{"hep": base, "storm": stormy}
}

// promLines renders the registry as Prometheus text split into lines,
// dropping the samples of wq_sched_round_seconds: that histogram records
// wall-clock round durations, the one series no seed can pin.
func promLines(t *testing.T, reg *metrics.Registry) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, ln := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(ln, "wq_sched_round_seconds") {
			out = append(out, ln)
		}
	}
	return out
}

// TestMetricsGoldenExport reproduces the committed registry dumps line for
// line, proving every counter, gauge and histogram keeps its exact value.
// Regenerate with `go test ./internal/core -run MetricsGolden -update`
// only after an intentional instrumentation change.
func TestMetricsGoldenExport(t *testing.T) {
	for name, cfg := range goldenMetricsRuns() {
		t.Run(name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			cfg.Metrics = reg
			if _, err := Run(workloads.HEP(sim.NewRNG(cfg.Seed), 200), cfg); err != nil {
				t.Fatal(err)
			}
			got := promLines(t, reg)
			path := filepath.Join("testdata", "metrics_"+name+".prom")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(strings.Join(got, "\n")), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want := strings.Split(string(raw), "\n")
			for i := 0; i < len(got) || i < len(want); i++ {
				var g, w string
				if i < len(got) {
					g = got[i]
				}
				if i < len(want) {
					w = want[i]
				}
				if g != w {
					t.Fatalf("%s line %d:\n got: %q\nwant: %q", path, i+1, g, w)
				}
			}
		})
	}
}
