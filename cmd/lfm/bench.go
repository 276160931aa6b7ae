package main

import (
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"lfm"
)

// cmdBench regenerates the tables and figures of the LFM paper's evaluation
// on the built-in cluster simulator.
//
//	lfm bench [-quick] [-seed N] [experiment ...]
//	lfm bench -metrics-out FILE
//	lfm bench -trace-out FILE [-trace-format json|perfetto]
//	lfm bench -telemetry-out FILE [-telemetry-sweep]
//
// With no arguments every experiment runs in the paper's order. Experiment
// IDs: fig4 fig5 table1 table2 table3 fig6 fig7 fig8 fig9.
//
// The -metrics-out form runs one instrumented Figure-6-style HEP workload
// (auto strategy, 20 four-core ND-CRC workers) and writes the final metric
// values in Prometheus text exposition format ("-" for stdout). For
// timelines of the same quantities, use -obs-out and render the snapshot
// stream with `lfm report`. Experiments named on the command line still
// run afterwards.
//
// The -trace-out form runs the same HEP workload with span tracing enabled
// and writes the trace: format "json" (the default) is the lfm-trace span
// store consumed by `lfm trace`, "perfetto" is Chrome trace-event JSON
// loadable at https://ui.perfetto.dev. Both forms may be combined.
func cmdBench(args []string, stdout, stderr io.Writer) (err error) {
	fs := newFlags("lfm bench", stderr)
	quick := fs.Bool("quick", false, "run reduced sweeps (seconds instead of minutes)")
	seed := fs.Int64("seed", 7, "simulation seed")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	metricsOut := fs.String("metrics-out", "", "run an instrumented HEP benchmark and write Prometheus text to this file (- for stdout)")
	traceOut := fs.String("trace-out", "", "run a traced HEP benchmark and write the span trace to this file (- for stdout)")
	traceFormat := fs.String("trace-format", "json", "trace export format: json (lfm-trace store) or perfetto (Chrome trace-event)")
	chaosProfile := fs.String("chaos-profile", "", "run an HEP benchmark under a canned fault schedule ("+strings.Join(lfm.ChaosProfiles(), ", ")+") with full resilience enabled; exits nonzero on invariant violations")
	chaosSeed := fs.Int64("chaos-seed", 0, "with -chaos-profile: seed fault injection independently of -seed (0 uses -seed)")
	chaosTrace := fs.String("chaos-trace", "", "with -chaos-profile: write the chaos run's span trace to this file (- for stdout)")
	scale := fs.Bool("scale", false, "run the scheduler scale sweep (up to 1M tasks x 50k workers; -quick shrinks it) and write BENCH_scheduler.json")
	scaleOut := fs.String("scale-out", "BENCH_scheduler.json", "with -scale: write the sweep report JSON to this file (- for stdout)")
	scalePoints := fs.String("scale-points", "", "with -scale: override sweep points, e.g. 100000x5000,1000000x50000")
	serveFlag := fs.Bool("serve", false, "run the open-loop serving sweep (Poisson arrivals at fractions of cluster capacity with admission control and load shedding) and write BENCH_serving.json")
	serveOut := fs.String("serve-out", "BENCH_serving.json", "with -serve: write the sweep report JSON to this file (- for stdout)")
	serveLoads := fs.String("serve-loads", "", "with -serve: override sweep load fractions, e.g. 0.5,1,2")
	obsOut := fs.String("obs-out", "", "run with the streaming observability plane and write the snapshot stream as JSONL to this file (- for stdout); combines with -chaos-profile; render it with lfm report")
	obsCadence := fs.Float64("obs-cadence", 1, "with -obs-out/-top/-summary-out: snapshot cadence in simulated seconds")
	topFlag := fs.Bool("top", false, "render a live lfmtop dashboard on stderr while the observed benchmark runs")
	summaryOut := fs.String("summary-out", "", "write the unified run summary JSON (stats, sched counters, latency quantiles, health) to this file (- for stdout)")
	archiveOut := fs.String("archive-out", "", "write the run's lfm diff archive (config, summary, snapshot stream, scheduler events) to this file; combines with -chaos-profile")
	telemetryOut := fs.String("telemetry-out", "", "run with resource time-series telemetry and write the JSONL export to this file (- for stdout); render it with lfm prof")
	telemetrySweep := fs.Bool("telemetry-sweep", false, "with -telemetry-out: record every paper workload under every strategy and print a utilization/waste table")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the whole invocation to this file")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: lfm bench [-quick] [-seed N] [experiment ...]\n")
		fmt.Fprintf(stderr, "       lfm bench -metrics-out FILE\n")
		fmt.Fprintf(stderr, "       lfm bench -trace-out FILE [-trace-format json|perfetto]\n")
		fmt.Fprintf(stderr, "experiments: %s\n", strings.Join(lfm.ExperimentIDs(), " "))
		fs.PrintDefaults()
	}
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		// Deferred, so a failed run still leaves its profile behind.
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}

	if *list {
		for _, id := range lfm.ExperimentIDs() {
			fmt.Fprintln(stdout, id)
		}
		return nil
	}

	if *metricsOut != "" {
		if err := runInstrumented(*seed, *metricsOut, stdout); err != nil {
			return err
		}
	}
	if *traceOut != "" {
		if err := runTraced(*seed, *traceOut, *traceFormat, stdout, stderr); err != nil {
			return err
		}
	}
	obsOpts := &obsOptions{out: *obsOut, cadence: *obsCadence, top: *topFlag, summary: *summaryOut, archive: *archiveOut}
	if *chaosProfile != "" {
		if err := runChaos(*seed, *chaosSeed, *chaosProfile, *chaosTrace, obsOpts, stdout, stderr); err != nil {
			return err
		}
	} else if obsOpts.enabled() {
		if err := runObs(*seed, obsOpts, stdout, stderr); err != nil {
			return err
		}
	}
	if *scale {
		if err := runScale(*seed, *quick, *scaleOut, *scalePoints, stdout, stderr); err != nil {
			return err
		}
	}
	if *serveFlag {
		if err := runServe(*seed, *quick, *serveOut, *serveLoads, stdout, stderr); err != nil {
			return err
		}
	}
	if *telemetrySweep && *telemetryOut == "" {
		fmt.Fprintln(stderr, "lfm bench: -telemetry-sweep requires -telemetry-out")
		return errUsage
	}
	if *telemetryOut != "" {
		if err := runTelemetry(*seed, *quick, *telemetrySweep, *telemetryOut, stdout); err != nil {
			return err
		}
	}
	if (*metricsOut != "" || *traceOut != "" || *chaosProfile != "" || *scale || *serveFlag || *telemetryOut != "" || obsOpts.enabled()) && fs.NArg() == 0 {
		return nil
	}

	ids := fs.Args()
	if len(ids) == 0 {
		ids = lfm.ExperimentIDs()
	}
	opt := lfm.ExperimentOptions{Quick: *quick, Seed: *seed}
	for _, id := range ids {
		start := time.Now()
		if err := lfm.RenderExperiment(id, opt, stdout); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  (%s generated in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// hepPoint is the Figure-6 benchmark point the single-run modes share: HEP
// on 20 four-core ND-CRC workers under the auto strategy.
func hepPoint(seed int64) lfm.ScenarioConfig {
	return lfm.ScenarioConfig{
		SiteName: "ndcrc", Workers: 20,
		WorkerCores: 4, WorkerMemoryMB: 4 * 1024, WorkerDiskMB: 8 * 1024,
		Strategy: "auto", Seed: seed, NoBatchLatency: true,
	}
}

// statusWriter is where a run's progress lines go: stdout, unless one of
// the run's outputs is itself written to stdout.
func statusWriter(stdout, stderr io.Writer, paths ...string) io.Writer {
	for _, p := range paths {
		if p == "-" {
			return stderr
		}
	}
	return stdout
}

// runInstrumented executes the HEP benchmark point with full metrics
// instrumentation and writes the registry as Prometheus text.
func runInstrumented(seed int64, promPath string, stdout io.Writer) error {
	w := lfm.HEPWorkload(seed, 200)
	cfg, err := hepPoint(seed).Materialize(w)
	if err != nil {
		return err
	}
	reg := lfm.NewMetricsRegistry()
	cfg.Metrics = reg
	out, err := lfm.RunWorkload(w, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "instrumented %s run: %d tasks on 20 4-core ndcrc workers, makespan %.0fs, utilization %.0f%%\n",
		out.Workload, out.TaskCount, float64(out.Makespan), 100*out.Utilization)
	return writeTo(promPath, stdout, reg.WritePrometheus)
}

// runTraced executes the same HEP benchmark point with span tracing enabled
// and writes the trace in the requested format.
func runTraced(seed int64, path, format string, stdout, stderr io.Writer) error {
	if format != "json" && format != "perfetto" {
		return fmt.Errorf("unknown -trace-format %q (want json or perfetto)", format)
	}
	w := lfm.HEPWorkload(seed, 200)
	cfg, err := hepPoint(seed).Materialize(w)
	if err != nil {
		return err
	}
	tr := &lfm.ExecutionTrace{}
	cfg.Trace = tr
	out, err := lfm.RunWorkload(w, cfg)
	if err != nil {
		return err
	}
	msg := statusWriter(stdout, stderr, path)
	st := tr.Store()
	fmt.Fprintf(msg, "traced %s run: %d tasks, makespan %.0fs, %d spans recorded\n",
		out.Workload, out.TaskCount, float64(out.Makespan), st.Len())
	if err := writeTo(path, stdout, func(f io.Writer) error {
		if format == "perfetto" {
			return st.WritePerfetto(f)
		}
		return st.WriteJSON(f)
	}); err != nil {
		return err
	}
	if format == "perfetto" {
		fmt.Fprintf(msg, "open the trace at https://ui.perfetto.dev (or chrome://tracing)\n")
	} else {
		fmt.Fprintf(msg, "analyze with: lfm trace %s\n", path)
	}
	return nil
}

// runChaos executes the HEP benchmark point under a canned fault schedule
// with every hardening feature enabled, prints the survival report, and
// returns a verdict error if any scheduler invariant broke. The
// observability options, when enabled, attach the snapshot bus to the same
// run, so one invocation yields both the chaos verdict and the obs stream.
func runChaos(seed, chaosSeed int64, profile, tracePath string, opts *obsOptions, stdout, stderr io.Writer) error {
	sched, err := lfm.ChaosProfile(profile, 10*lfm.Minute)
	if err != nil {
		return err
	}
	scfg := hepPoint(seed)
	scfg.ChaosSeed = chaosSeed
	scfg.Resilience = lfm.ResilienceConfig{
		HeartbeatInterval:     10,
		SpeculationMultiplier: 2,
		QuarantineThreshold:   3,
		StagingRetries:        3,
	}
	scfg.Faults = sched
	w := lfm.HEPWorkload(seed, 200)
	out, tr, err := opts.run(w, scfg, tracePath != "", stdout, stderr)
	if err != nil {
		return err
	}
	msg := statusWriter(stdout, stderr, tracePath, opts.out, opts.summary)
	fmt.Fprintf(msg, "chaos %q over %s: %d/%d tasks completed (%d failed), makespan %.0fs\n",
		profile, out.Workload, out.Stats.Completed, out.TaskCount, out.Failed, float64(out.Makespan))
	fmt.Fprintf(msg, "  %s\n", out.Chaos.Summary())
	if rs := out.Stats.Resilience; rs != nil {
		fmt.Fprintf(msg, "  detections: %d (mean latency %.1fs)  speculation: %d launched / %d won  staging retries: %d  quarantines: %d\n",
			rs.DetectionDelays.N(), rs.DetectionDelays.Mean(),
			rs.SpecLaunched, rs.SpecWins, rs.StagingRetries, rs.Quarantines)
	}
	if out.ProvisionFailures > 0 {
		fmt.Fprintf(msg, "  provisioning rejections: %d (last: %s)\n", out.ProvisionFailures, out.ProvisionError)
	}
	if tracePath != "" {
		if err := writeTo(tracePath, stdout, tr.Store().WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(msg, "  analyze with: lfm trace %s\n", tracePath)
	}
	if err := opts.finish(out, w, scfg, stdout, msg, stderr); err != nil {
		return err
	}
	if len(out.Chaos.Violations) > 0 {
		return verdictf("%d invariant violations: %v", len(out.Chaos.Violations), out.Chaos.Violations)
	}
	return nil
}
