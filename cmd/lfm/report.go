package main

import (
	"fmt"
	"io"
	"text/tabwriter"

	"lfm"
)

// cmdReport renders an observability stream (as written by `lfm bench
// -obs-out` or ObsConfig.Stream) as a run health report: the verdict and
// rule findings with their evidence windows, the queue-depth and
// utilization timelines as sparklines, and the run's scheduling and
// end-to-end latency quantiles per category.
//
// When the stream carries no trailing health line (a truncated or live
// capture), the health rules are re-run over the streamed snapshots. -json
// additionally re-exports the health report as JSON for machine
// consumption. An unhealthy verdict exits 3; -allow-unhealthy renders an
// unhealthy run without the nonzero exit, for exploratory use on runs that
// are expected to be degraded.
func cmdReport(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("lfm report", stderr)
	jsonOut := fs.String("json", "", "also write the health report as JSON to this file (- for stdout)")
	width := fs.Int("width", 60, "character width of the timeline sparklines")
	allowUnhealthy := fs.Bool("allow-unhealthy", false, "exit 0 even when the verdict is unhealthy")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: lfm report [-json FILE] [-width N] [-allow-unhealthy] OBS.jsonl")
		fs.PrintDefaults()
	}
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return errUsage
	}

	in, err := openInput(fs.Arg(0))
	if err != nil {
		return err
	}
	defer in.Close()
	st, err := lfm.ReadObsStream(in)
	if err != nil {
		return err
	}
	health := st.Health
	if health == nil {
		health = lfm.AnalyzeObs(st.RunObs(), nil)
	}
	renderHealth(stdout, st, health, *width)

	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, stdout, health); err != nil {
			return err
		}
	}
	return healthVerdict(health, *allowUnhealthy)
}

// healthVerdict is the verdict error for an unhealthy run, unless
// -allow-unhealthy downgrades it.
func healthVerdict(health *lfm.RunHealth, allowUnhealthy bool) error {
	if health != nil && !health.Healthy && !allowUnhealthy {
		return verdictf("run is unhealthy (worst: %s); pass -allow-unhealthy to suppress", health.Worst())
	}
	return nil
}

// renderHealth prints the report: header, verdict and findings, timelines,
// latency tables, and run counters.
func renderHealth(w io.Writer, st *lfm.ObsStream, health *lfm.RunHealth, width int) {
	m := st.Meta
	fin := st.Final
	if fin == nil && len(st.Snapshots) > 0 {
		fin = st.Snapshots[len(st.Snapshots)-1]
	}
	fmt.Fprintf(w, "=== %s / %s: %d workers, seed %d", orDash(m.Workload), orDash(m.Strategy), m.Workers, m.Seed)
	if fin != nil {
		fmt.Fprintf(w, ", makespan %.0fs", float64(fin.At))
	}
	fmt.Fprintf(w, " ===\n")

	verdict := "HEALTHY"
	if !health.Healthy {
		verdict = "UNHEALTHY (worst: " + health.Worst() + ")"
	}
	fmt.Fprintf(w, "\nverdict: %s — %d findings over %d snapshots at %.0fs cadence\n",
		verdict, len(health.Findings), health.Snapshots, float64(health.Cadence))
	if len(health.Findings) > 0 {
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "severity\trule\twindow\tdetail")
		for _, f := range health.Findings {
			window := "-"
			if f.WindowEnd > 0 {
				window = fmt.Sprintf("%.0fs-%.0fs", float64(f.WindowStart), float64(f.WindowEnd))
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", f.Severity, f.Rule, window, f.Detail)
		}
		tw.Flush()
	}

	if len(st.Snapshots) > 1 {
		depths := make([]float64, len(st.Snapshots))
		utils := make([]float64, len(st.Snapshots))
		for i, s := range st.Snapshots {
			depths[i] = float64(s.QueueDepth)
			utils[i] = s.Utilization
		}
		peak := 0.0
		for _, d := range depths {
			if d > peak {
				peak = d
			}
		}
		// Compress the whole timeline into the display width (max per
		// bucket), so the sparkline spans the run rather than its tail.
		depths = bucketMax(depths, width)
		utils = bucketMax(utils, width)
		fmt.Fprintf(w, "\nqueue depth |%s| peak %.0f\n", lfm.Sparkline(depths, width), peak)
		fmt.Fprintf(w, "utilization |%s|", lfm.Sparkline(utils, width))
		if fin != nil {
			fmt.Fprintf(w, " final %.0f%%", 100*fin.Utilization)
		}
		fmt.Fprintln(w)
	}

	if fin != nil {
		if fin.SchedLatency.Count > 0 {
			fmt.Fprintln(w, "\nlatency quantiles (seconds; sched = submit→placement, e2e = submit→completion):")
			tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "scope\tsched n\tp50\tp99\tp999\te2e n\tp50\tp99\tp999")
			row := func(scope string, sched, e2e lfm.ObsLatencyQuantiles) {
				fmt.Fprintf(tw, "%s\t%d\t%.3g\t%.3g\t%.3g\t%d\t%.3g\t%.3g\t%.3g\n",
					scope, sched.Count, sched.P50, sched.P99, sched.P999,
					e2e.Count, e2e.P50, e2e.P99, e2e.P999)
			}
			row("pool", fin.SchedLatency, fin.E2ELatency)
			for _, c := range fin.Categories {
				row(c.Category, c.Sched, c.E2E)
			}
			tw.Flush()
		}
		fmt.Fprintf(w, "\ntasks: %d submitted, %d completed, %d failed, %d retries\n",
			fin.Submitted, fin.Completed, fin.Failed, fin.Retries)
		if fin.Offered > 0 {
			fmt.Fprintf(w, "serving: %d offered, %d shed, %d rejected, %d throttled, %d backpressured\n",
				fin.Offered, fin.Shed, fin.Rejected, fin.Throttled, fin.Backpressured)
		}
		fmt.Fprintf(w, "pool: %d workers alive, %d quarantined (%d trips), %.0f of %.0f cores allocated\n",
			fin.WorkersAlive, fin.WorkersQuarantined, fin.QuarantineTrips,
			fin.AllocatedCores, fin.PoolCores)
		if fin.ChaosInjected > 0 || fin.Anomalies > 0 {
			fmt.Fprintf(w, "chaos: %d faults injected, %d anomalies flagged\n",
				fin.ChaosInjected, fin.Anomalies)
		}
	}
}

// bucketMax compresses vals into at most width buckets, keeping each
// bucket's maximum (peaks must survive the compression).
func bucketMax(vals []float64, width int) []float64 {
	if width <= 0 || len(vals) <= width {
		return vals
	}
	out := make([]float64, width)
	for i, v := range vals {
		b := i * width / len(vals)
		if v > out[b] {
			out[b] = v
		}
	}
	return out
}
