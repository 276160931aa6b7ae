// Trace: record every scheduler event of a workload run — submissions,
// environment transfers, task starts, exhaustion kills, retries, worker
// churn — and render per-attempt spans as an ASCII Gantt chart. This is the
// observability surface a user points at when asking "why was my workflow
// slow?".
//
// Run with: go run ./examples/trace
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"lfm"
)

func main() {
	w := lfm.HEPWorkload(21, 30)
	s, err := lfm.StrategyFor("auto", w)
	if err != nil {
		log.Fatal(err)
	}
	trace := &lfm.ExecutionTrace{}
	out, err := lfm.RunWorkload(w, lfm.RunConfig{
		SiteName: "ndcrc", Workers: 4, Seed: 21, NoBatchLatency: true,
		Strategy: s, Trace: trace,
		// A pilot job dies every ~2 minutes and is resubmitted.
		Faults: &lfm.ChaosSchedule{ChurnMTBF: 120, ChurnReplace: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("HEP, 30 analysis tasks, 4 workers with churn: makespan %s\n",
		out.Makespan.Duration())
	fmt.Println(trace.Summary())

	// Per-category resource report (what a user would persist and preload).
	fmt.Println("\nper-category monitor report:")
	for _, c := range out.Categories {
		fmt.Printf("  %-10s %3d tasks, peak %s\n", c.Category, c.Tasks, c.MaxObserved())
	}

	// ASCII Gantt of the first 16 task attempts.
	spans := trace.Spans()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if len(spans) > 16 {
		spans = spans[:16]
	}
	// The axis runs to the latest span edge; open spans (End == -1) only
	// contribute their start.
	var maxEnd float64
	for _, sp := range spans {
		if float64(sp.Start) > maxEnd {
			maxEnd = float64(sp.Start)
		}
		if float64(sp.End) > maxEnd {
			maxEnd = float64(sp.End)
		}
	}
	const width = 60
	if maxEnd <= 0 {
		fmt.Println("\nno attempts with nonzero extent to chart")
		return
	}
	fmt.Printf("\nfirst %d attempts (one row per attempt, %c = running):\n",
		len(spans), '#')
	for _, sp := range spans {
		start := int(float64(sp.Start) / maxEnd * width)
		end := width // still running: the bar extends to the chart's edge
		if sp.End >= 0 {
			end = int(float64(sp.End) / maxEnd * width)
		}
		if end <= start {
			end = start + 1
		}
		if end > width {
			end = width
		}
		bar := strings.Repeat(" ", start) + strings.Repeat("#", end-start)
		marker := " "
		switch {
		case sp.Outcome == "exhausted" || sp.Outcome == "lost":
			marker = "x"
		case sp.End < 0:
			marker = ">"
		}
		fmt.Printf("  task %3d w%d |%-*s|%s\n", sp.Task, sp.Worker, width, bar, marker)
	}
	fmt.Println("\nrows ending in x were killed (limit exceeded) or lost (worker died)")
	fmt.Printf("and resubmitted; %d attempts were lost to churn in total.\n",
		out.Stats.LostTasks)

	// The full span tree has far more to say than this chart: per-phase
	// critical-path analysis and an interactive timeline.
	if cp := trace.Store().CriticalPath(); cp != nil && len(cp.Phases) > 0 {
		fmt.Printf("\ncritical path: %.0fs across %d steps; dominant phase: %s (%.0f%%)\n",
			float64(cp.Total()), len(cp.Steps), cp.Phases[0].Kind, 100*cp.Phases[0].Fraction)
	}
	fmt.Println("for the interactive view, export with `lfm bench -trace-out t.json " +
		"-trace-format perfetto` and open it at https://ui.perfetto.dev")
}
