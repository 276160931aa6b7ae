package main

import (
	"fmt"
	"io"
	"math"
	"strings"
	"text/tabwriter"

	"lfm"
)

// cmdProf renders a telemetry export (as written by `lfm bench
// -telemetry-out` or RunTelemetry.WriteJSONL) as human-readable profiles:
// per-category resource usage distributions with allocation-label audit,
// per-node allocated-versus-used utilization timelines, detected anomalies,
// and — when the export holds several runs — a comparative waste table
// across strategies. -csv additionally dumps every attempt's usage series
// as flat CSV for spreadsheet or notebook analysis.
//
// A telemetry invariant breach (series over cap, non-monotone deltas, lost
// peaks) is a verdict, exit 3; -allow-invalid still renders a breached
// export but suppresses the nonzero exit.
func cmdProf(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("lfm prof", stderr)
	csvOut := fs.String("csv", "", "also write every attempt series as CSV to this file (- for stdout)")
	width := fs.Int("width", 60, "character width of the node utilization bars")
	allowInvalid := fs.Bool("allow-invalid", false, "exit 0 even when a run breaches the telemetry invariants")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: lfm prof [-csv FILE] [-width N] [-allow-invalid] TELEMETRY.jsonl")
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
	runs, err := lfm.ReadTelemetry(in)
	if err != nil {
		return err
	}

	for i, rt := range runs {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		renderTelemetry(stdout, rt, *width)
	}
	if len(runs) > 1 {
		fmt.Fprintln(stdout)
		compareRuns(stdout, runs)
	}

	if *csvOut != "" {
		if err := writeTo(*csvOut, stdout, func(w io.Writer) error {
			for _, rt := range runs {
				if err := rt.WriteSeriesCSV(w); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}

	if err := checkRuns(runs); err != nil {
		if !*allowInvalid {
			return verdictf("%v; pass -allow-invalid to suppress", err)
		}
		fmt.Fprintf(stderr, "lfm prof: %v; pass -allow-invalid to suppress\n", err)
	}
	return nil
}

// checkRuns verifies every run's telemetry invariants (bounded monotone
// series, exact peaks), reporting the first breach.
func checkRuns(runs []*lfm.RunTelemetry) error {
	for i, rt := range runs {
		if err := rt.CheckInvariants(); err != nil {
			return fmt.Errorf("run %d (%s/%s) breaches telemetry invariants: %w",
				i, orDash(rt.Meta.Workload), orDash(rt.Meta.Strategy), err)
		}
	}
	return nil
}

// renderTelemetry prints one run: header, category profiles, utilization summary,
// node timelines, anomalies.
func renderTelemetry(w io.Writer, rt *lfm.RunTelemetry, width int) {
	m := rt.Meta
	fmt.Fprintf(w, "=== %s / %s: %d workers, seed %d, makespan %.0fs ===\n",
		orDash(m.Workload), orDash(m.Strategy), m.Workers, m.Seed, float64(m.Makespan))

	if len(rt.Profiles) > 0 {
		fmt.Fprintln(w, "\ncategory profiles (memory in MB, times in s):")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "category\tdone\tkilled\tmem p50\tp90\tp99\tmax\tcores max\tttp p50\tshape\tlabel mem\tcoverage")
		for _, p := range rt.Profiles {
			label, coverage := "-", "-"
			if p.Label != nil {
				label = fmt.Sprintf("%.0f", p.Label.MemoryMB)
				coverage = fmt.Sprintf("%.0f%%", 100*p.LabelCoverage)
			}
			fmt.Fprintf(tw, "%s\t%d\t%d\t%.0f\t%.0f\t%.0f\t%.0f\t%.1f\t%.0f\t%.2f\t%s\t%s\n",
				p.Category, p.Completed, p.Killed,
				p.PeakMemMB.P50, p.PeakMemMB.P90, p.PeakMemMB.P99, p.PeakMemMB.Max,
				p.PeakCores.Max, p.TimeToPeakS.P50, p.MeanOverPeakMem, label, coverage)
		}
		tw.Flush()
	}

	u := rt.Util
	fmt.Fprintf(w, "\nutilization: provisioned %.0f core-s, allocated %.0f (%.1f%%), used %.0f (%.1f%%)\n",
		u.ProvisionedCoreSeconds, u.AllocatedCoreSeconds, 100*u.AllocatedFraction,
		u.UsedCoreSeconds, 100*u.UsedFraction)
	fmt.Fprintf(w, "waste %.1f%% of provisioned cores, %.1f%% of allocated memory; packing efficiency %.1f%%\n",
		100*u.WasteFraction, 100*u.MemWasteFraction, 100*u.PackingEfficiency)

	if len(rt.Nodes) > 0 {
		fmt.Fprintf(w, "\nnode timelines (core level, ramp ' %s' scales 0 to capacity, bar spans the run):\n", rampChars)
		for _, n := range rt.Nodes {
			renderNode(w, n, rt.Meta.Makespan, width)
		}
	}

	if len(rt.Anomalies) > 0 {
		fmt.Fprintln(w, "\nanomalies:")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "kind\ttask\tattempt\tcategory\tnode\tat(s)\tdetail")
		for _, a := range rt.Anomalies {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%d\t%.0f\t%s\n",
				a.Kind, a.Task, a.Attempt, orDash(a.Category), a.Node, float64(a.At), a.Detail)
		}
		tw.Flush()
	}
}

const rampChars = ".:-=+*#@"

// renderNode draws one node's allocated and used core levels as two
// time-bucketed character ramps.
func renderNode(w io.Writer, n *lfm.TelemetryNode, makespan lfm.Time, width int) {
	end := n.Left
	if end < 0 || end > makespan {
		end = makespan
	}
	span := float64(end - n.Joined)
	if span <= 0 || width <= 0 {
		return
	}
	alloc := bucketize(n.Alloc, n.Joined, span, width)
	used := bucketize(n.Used, n.Joined, span, width)
	cap := n.Capacity.Cores
	util := 0.0
	if n.ProvisionedCoreSeconds > 0 {
		util = n.UsedCoreSeconds / n.ProvisionedCoreSeconds
	}
	fmt.Fprintf(w, "  node %3d (%2.0fc %5.0fMB)  alloc |%s|\n", n.Node, cap, n.Capacity.MemoryMB, ramp(alloc, cap, rampChars))
	fmt.Fprintf(w, "  %24s used  |%s|  %.0f%% of provisioned\n", "", ramp(used, cap, rampChars), 100*util)
}

// bucketize averages a delta-encoded level series into width time buckets.
func bucketize(pts []lfm.TelemetryPoint, start lfm.Time, span float64, width int) []float64 {
	out := make([]float64, width)
	if len(pts) == 0 {
		return out
	}
	// Walk the step function: level holds from each point's time to the next.
	t := start
	level := 0.0
	// Integrate level over each bucket.
	acc := make([]float64, width)
	bucketDur := span / float64(width)
	addSpan := func(from, to lfm.Time, lvl float64) {
		if to <= from || lvl == 0 {
			return
		}
		b0 := int(float64(from-start) / bucketDur)
		b1 := int(float64(to-start) / bucketDur)
		for b := b0; b <= b1 && b < width; b++ {
			if b < 0 {
				continue
			}
			lo := start + lfm.Time(float64(b)*bucketDur)
			hi := lo + lfm.Time(bucketDur)
			seg := math.Min(float64(to), float64(hi)) - math.Max(float64(from), float64(lo))
			if seg > 0 {
				acc[b] += lvl * seg
			}
		}
	}
	for _, p := range pts {
		next := t + p.DT
		addSpan(t, next, level)
		t = next
		level = p.U.Cores
	}
	addSpan(t, start+lfm.Time(span), level)
	for i := range out {
		out[i] = acc[i] / bucketDur
	}
	return out
}

// ramp renders bucket levels as characters scaled to cap.
func ramp(levels []float64, cap float64, chars string) string {
	var b strings.Builder
	for _, v := range levels {
		if v <= 0 || cap <= 0 {
			b.WriteByte(' ')
			continue
		}
		idx := int(v / cap * float64(len(chars)))
		if idx >= len(chars) {
			idx = len(chars) - 1
		}
		b.WriteByte(chars[idx])
	}
	return b.String()
}

// compareRuns prints the cross-run waste table for multi-run exports.
func compareRuns(w io.Writer, runs []*lfm.RunTelemetry) {
	fmt.Fprintln(w, "=== strategy comparison ===")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tstrategy\tmakespan(s)\talloc-core-s\tused-core-s\twaste\tpacking\tanomalies")
	for _, rt := range runs {
		u := rt.Util
		fmt.Fprintf(tw, "%s\t%s\t%.0f\t%.0f\t%.0f\t%.1f%%\t%.1f%%\t%d\n",
			orDash(rt.Meta.Workload), orDash(rt.Meta.Strategy), float64(rt.Meta.Makespan),
			u.AllocatedCoreSeconds, u.UsedCoreSeconds,
			100*u.WasteFraction, 100*u.PackingEfficiency, len(rt.Anomalies))
	}
	tw.Flush()
}
