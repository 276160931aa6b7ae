// Command lfmbench regenerates the tables and figures of the LFM paper's
// evaluation on the built-in cluster simulator.
//
// Usage:
//
//	lfmbench [-quick] [-seed N] [experiment ...]
//	lfmbench -metrics-out FILE
//	lfmbench -trace-out FILE [-trace-format json|perfetto]
//	lfmbench -telemetry-out FILE [-telemetry-sweep]
//
// With no arguments every experiment runs in the paper's order. Experiment
// IDs: fig4 fig5 table1 table2 table3 fig6 fig7 fig8 fig9.
//
// The -metrics-out form runs one instrumented Figure-6-style HEP workload
// (auto strategy, 20 four-core ND-CRC workers) and writes the final metric
// values in Prometheus text exposition format ("-" for stdout). For
// timelines of the same quantities, use -obs-out and render the snapshot
// stream with cmd/lfmreport. Experiments named on the command line still run
// afterwards.
//
// The -trace-out form runs the same HEP workload with span tracing enabled
// and writes the trace: format "json" (the default) is the lfm-trace span
// store consumed by cmd/lfmtrace, "perfetto" is Chrome trace-event JSON
// loadable at https://ui.perfetto.dev. Both forms may be combined.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"lfm"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced sweeps (seconds instead of minutes)")
	seed := flag.Int64("seed", 7, "simulation seed")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	metricsOut := flag.String("metrics-out", "", "run an instrumented HEP benchmark and write Prometheus text to this file (- for stdout)")
	traceOut := flag.String("trace-out", "", "run a traced HEP benchmark and write the span trace to this file (- for stdout)")
	traceFormat := flag.String("trace-format", "json", "trace export format: json (lfm-trace store) or perfetto (Chrome trace-event)")
	chaosProfile := flag.String("chaos-profile", "", "run an HEP benchmark under a canned fault schedule ("+strings.Join(lfm.ChaosProfiles(), ", ")+") with full resilience enabled; exits nonzero on invariant violations")
	chaosSeed := flag.Int64("chaos-seed", 0, "with -chaos-profile: seed fault injection independently of -seed (0 uses -seed)")
	chaosTrace := flag.String("chaos-trace", "", "with -chaos-profile: write the chaos run's span trace to this file (- for stdout)")
	scale := flag.Bool("scale", false, "run the scheduler scale sweep (up to 1M tasks x 50k workers; -quick shrinks it) and write BENCH_scheduler.json")
	scaleOut := flag.String("scale-out", "BENCH_scheduler.json", "with -scale: write the sweep report JSON to this file (- for stdout)")
	scalePoints := flag.String("scale-points", "", "with -scale: override sweep points, e.g. 100000x5000,1000000x50000")
	serveFlag := flag.Bool("serve", false, "run the open-loop serving sweep (Poisson arrivals at fractions of cluster capacity with admission control and load shedding) and write BENCH_serving.json")
	serveOut := flag.String("serve-out", "BENCH_serving.json", "with -serve: write the sweep report JSON to this file (- for stdout)")
	serveLoads := flag.String("serve-loads", "", "with -serve: override sweep load fractions, e.g. 0.5,1,2")
	obsOut := flag.String("obs-out", "", "run with the streaming observability plane and write the snapshot stream as JSONL to this file (- for stdout); combines with -chaos-profile; render it with cmd/lfmreport")
	obsCadence := flag.Float64("obs-cadence", 1, "with -obs-out/-top/-summary-out: snapshot cadence in simulated seconds")
	topFlag := flag.Bool("top", false, "render a live lfmtop dashboard on stderr while the observed benchmark runs")
	summaryOut := flag.String("summary-out", "", "write the unified run summary JSON (stats, sched counters, latency quantiles, health) to this file (- for stdout)")
	archiveOut := flag.String("archive-out", "", "write the run's lfmdiff archive (config, summary, snapshot stream, scheduler events) to this file; combines with -chaos-profile")
	telemetryOut := flag.String("telemetry-out", "", "run with resource time-series telemetry and write the JSONL export to this file (- for stdout); render it with cmd/lfmprof")
	telemetrySweep := flag.Bool("telemetry-sweep", false, "with -telemetry-out: record every paper workload under every strategy and print a utilization/waste table")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole invocation to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: lfmbench [-quick] [-seed N] [experiment ...]\n")
		fmt.Fprintf(os.Stderr, "       lfmbench -metrics-out FILE\n")
		fmt.Fprintf(os.Stderr, "       lfmbench -trace-out FILE [-trace-format json|perfetto]\n")
		fmt.Fprintf(os.Stderr, "experiments: %s\n", strings.Join(lfm.ExperimentIDs(), " "))
		flag.PrintDefaults()
	}
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
		defer stopProfile()
	}

	if *list {
		for _, id := range lfm.ExperimentIDs() {
			fmt.Println(id)
		}
		return
	}

	if *metricsOut != "" {
		if err := runInstrumented(*seed, *metricsOut); err != nil {
			fail(err)
		}
	}
	if *traceOut != "" {
		if err := runTraced(*seed, *traceOut, *traceFormat); err != nil {
			fail(err)
		}
	}
	obsOpts := &obsOptions{out: *obsOut, cadence: *obsCadence, top: *topFlag, summary: *summaryOut, archive: *archiveOut}
	if *chaosProfile != "" {
		if err := runChaos(*seed, *chaosSeed, *chaosProfile, *chaosTrace, obsOpts); err != nil {
			fail(err)
		}
	} else if obsOpts.enabled() {
		if err := runObs(*seed, obsOpts); err != nil {
			fail(err)
		}
	}
	if *scale {
		if err := runScale(*seed, *quick, *scaleOut, *scalePoints); err != nil {
			fail(err)
		}
	}
	if *serveFlag {
		if err := runServe(*seed, *quick, *serveOut, *serveLoads); err != nil {
			fail(err)
		}
	}
	if *telemetrySweep && *telemetryOut == "" {
		fmt.Fprintln(os.Stderr, "lfmbench: -telemetry-sweep requires -telemetry-out")
		exit(2)
	}
	if *telemetryOut != "" {
		if err := runTelemetry(*seed, *quick, *telemetrySweep, *telemetryOut); err != nil {
			fail(err)
		}
	}
	if (*metricsOut != "" || *traceOut != "" || *chaosProfile != "" || *scale || *serveFlag || *telemetryOut != "" || obsOpts.enabled()) && flag.NArg() == 0 {
		return
	}

	ids := flag.Args()
	if len(ids) == 0 {
		ids = lfm.ExperimentIDs()
	}
	opt := lfm.ExperimentOptions{Quick: *quick, Seed: *seed}
	for _, id := range ids {
		start := time.Now()
		if err := lfm.RenderExperiment(id, opt, os.Stdout); err != nil {
			fail(err)
		}
		fmt.Printf("  (%s generated in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

// stopProfile flushes the CPU profile once -cpuprofile has started one.
var stopProfile = func() {}

// exit stops the CPU profile, then exits with code. os.Exit skips deferred
// calls, so every exit goes through here to keep the profile of a failed
// run.
func exit(code int) {
	stopProfile()
	os.Exit(code)
}

// fail reports err and exits 1.
func fail(err error) {
	fmt.Fprintf(os.Stderr, "lfmbench: %v\n", err)
	exit(1)
}

// runInstrumented executes the Figure-6 point (HEP on ND-CRC, 20 four-core
// workers, auto strategy) with full metrics instrumentation and writes the
// registry as Prometheus text.
func runInstrumented(seed int64, promPath string) error {
	w := lfm.HEPWorkload(seed, 200)
	strategy, err := lfm.StrategyFor("auto", w)
	if err != nil {
		return err
	}
	reg := lfm.NewMetricsRegistry()
	out, err := lfm.RunWorkload(w, lfm.RunConfig{
		SiteName: "ndcrc", Workers: 20,
		WorkerCores: 4, WorkerMemoryMB: 4 * 1024, WorkerDiskMB: 8 * 1024,
		Strategy: strategy, Seed: seed, NoBatchLatency: true,
		Metrics: reg,
	})
	if err != nil {
		return err
	}
	fmt.Printf("instrumented %s run: %d tasks on 20 4-core ndcrc workers, makespan %.0fs, utilization %.0f%%\n",
		out.Workload, out.TaskCount, float64(out.Makespan), 100*out.Utilization)
	return writeTo(promPath, reg.WritePrometheus)
}

// runTraced executes the same HEP benchmark point with span tracing enabled
// and writes the trace in the requested format.
func runTraced(seed int64, path, format string) error {
	if format != "json" && format != "perfetto" {
		return fmt.Errorf("unknown -trace-format %q (want json or perfetto)", format)
	}
	w := lfm.HEPWorkload(seed, 200)
	strategy, err := lfm.StrategyFor("auto", w)
	if err != nil {
		return err
	}
	tr := &lfm.ExecutionTrace{}
	out, err := lfm.RunWorkload(w, lfm.RunConfig{
		SiteName: "ndcrc", Workers: 20,
		WorkerCores: 4, WorkerMemoryMB: 4 * 1024, WorkerDiskMB: 8 * 1024,
		Strategy: strategy, Seed: seed, NoBatchLatency: true,
		Trace: tr,
	})
	if err != nil {
		return err
	}
	// Status lines go to stderr when the trace itself goes to stdout.
	msg := io.Writer(os.Stdout)
	if path == "-" {
		msg = os.Stderr
	}
	st := tr.Store()
	fmt.Fprintf(msg, "traced %s run: %d tasks, makespan %.0fs, %d spans recorded\n",
		out.Workload, out.TaskCount, float64(out.Makespan), st.Len())
	if err := writeTo(path, func(f io.Writer) error {
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
		fmt.Fprintf(msg, "analyze with: lfmtrace %s\n", path)
	}
	return nil
}

// runChaos executes the HEP benchmark point under a canned fault schedule
// with every hardening feature enabled, prints the survival report, and
// fails if any scheduler invariant broke. The observability options, when
// enabled, attach the snapshot bus to the same run, so one invocation
// yields both the chaos verdict and the obs stream.
func runChaos(seed, chaosSeed int64, profile, tracePath string, opts *obsOptions) error {
	w := lfm.HEPWorkload(seed, 200)
	strategy, err := lfm.StrategyFor("auto", w)
	if err != nil {
		return err
	}
	sched, err := lfm.ChaosProfile(profile, 10*lfm.Minute)
	if err != nil {
		return err
	}
	var tr *lfm.ExecutionTrace
	if tracePath != "" || opts.archive != "" {
		tr = &lfm.ExecutionTrace{}
	}
	var ocfg *lfm.ObsConfig
	var top *lfm.ObsTop
	cleanup := func() error { return nil }
	if opts.enabled() {
		if ocfg, top, cleanup, err = opts.attach(); err != nil {
			return err
		}
	}
	resilience := lfm.ResilienceConfig{
		HeartbeatInterval:     10,
		SpeculationMultiplier: 2,
		QuarantineThreshold:   3,
		StagingRetries:        3,
	}
	scfg := lfm.ScenarioConfig{
		SiteName: "ndcrc", Workers: 20,
		WorkerCores: 4, WorkerMemoryMB: 4 * 1024, WorkerDiskMB: 8 * 1024,
		Strategy: "auto", Seed: seed, ChaosSeed: chaosSeed, NoBatchLatency: true,
		Resilience: resilience, Faults: sched,
	}
	out, err := lfm.RunWorkload(w, lfm.RunConfig{
		SiteName: "ndcrc", Workers: 20,
		WorkerCores: 4, WorkerMemoryMB: 4 * 1024, WorkerDiskMB: 8 * 1024,
		Strategy: strategy, Seed: seed, ChaosSeed: chaosSeed, NoBatchLatency: true,
		Resilience: resilience,
		Faults:     sched,
		Trace:      tr,
		Obs:        ocfg,
	})
	if cerr := cleanup(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	msg := io.Writer(os.Stdout)
	if tracePath == "-" || opts.out == "-" || opts.summary == "-" {
		msg = os.Stderr
	}
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
		if err := writeTo(tracePath, func(f io.Writer) error { return tr.Store().WriteJSON(f) }); err != nil {
			return err
		}
		fmt.Fprintf(msg, "  analyze with: lfmtrace %s\n", tracePath)
	}
	if err := opts.writeArchive(out, scfg, w, msg); err != nil {
		return err
	}
	if opts.enabled() {
		if err := opts.finish(out, top, msg); err != nil {
			return err
		}
	}
	if len(out.Chaos.Violations) > 0 {
		return fmt.Errorf("%d invariant violations: %v", len(out.Chaos.Violations), out.Chaos.Violations)
	}
	return nil
}

func writeTo(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
