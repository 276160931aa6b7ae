// Metrics: instrument a churn-heavy workload run with the cluster-wide
// metrics registry and the obs snapshot bus, then render the core-utilization
// timeline from the snapshots as an ASCII chart and summarize the registry's
// headline counters and latency distributions.
// Where examples/trace answers "what happened to each task?", this is the
// fleet view: how full the pool was over time, how much of the traffic hit
// worker caches, and where the scheduler lost capacity to churn.
//
// Run with: go run ./examples/metrics
package main

import (
	"fmt"
	"log"
	"strings"

	"lfm"
)

func main() {
	w := lfm.HEPWorkload(11, 120)
	s, err := lfm.StrategyFor("auto", w)
	if err != nil {
		log.Fatal(err)
	}
	reg := lfm.NewMetricsRegistry()
	out, err := lfm.RunWorkload(w, lfm.RunConfig{
		SiteName: "ndcrc", Workers: 8, Seed: 11, NoBatchLatency: true,
		Strategy: s,
		// Pilot jobs die every ~90s on average and are resubmitted.
		Faults:  &lfm.ChaosSchedule{ChurnMTBF: 90, ChurnReplace: true},
		Metrics: reg,
		Obs:     &lfm.ObsConfig{Cadence: 2},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("HEP, %d tasks, 8 workers with churn: makespan %s\n\n",
		out.TaskCount, out.Makespan.Duration())

	// Utilization timeline: the allocated fraction of provisioned cores at
	// each snapshot, averaged into fixed-width columns. The glyph ramp
	// encodes the allocated fraction.
	snaps := append(out.Obs.Snapshots, out.Obs.Final)
	if len(snaps) < 2 || out.Obs.Final.At <= 0 {
		log.Fatal("metrics: no utilization timeline")
	}
	const width = 72
	ramp := []rune(" .:-=+*#%@")
	cols := make([]float64, width) // mean allocated fraction per column
	counts := make([]int, width)
	span := float64(out.Obs.Final.At)
	for _, sn := range snaps {
		if sn.PoolCores == 0 {
			continue
		}
		col := int(float64(sn.At) / span * float64(width-1))
		cols[col] += sn.Utilization
		counts[col]++
	}
	var line strings.Builder
	for i := range cols {
		f := 0.0
		if counts[i] > 0 {
			f = cols[i] / float64(counts[i])
		}
		g := int(f * float64(len(ramp)-1))
		line.WriteRune(ramp[g])
	}
	fmt.Println("core utilization over time (@ = pool fully allocated):")
	fmt.Printf("  |%s|\n", line.String())
	dur := out.Makespan.Duration()
	fmt.Printf("  0%*s%s\n\n", width-len(dur)+1, "", dur)

	// Headline counters across the stack.
	c := func(name string, labels ...lfm.MetricsLabel) float64 {
		return reg.Counter(name, labels...).Value()
	}
	fmt.Println("headline counters:")
	fmt.Printf("  placements   %6.0f   retries %4.0f   lost to churn %4.0f\n",
		c("wq_placements_total"), c("wq_retries_total"), c("wq_tasks_lost_total"))
	fmt.Printf("  cache hits   %6.0f   misses  %4.0f   hit ratio %.0f%%\n",
		c("wq_cache_hits_total"), c("wq_cache_misses_total"),
		100*reg.Gauge("wq_cache_hit_ratio").Value())
	fmt.Printf("  staged in    %6.1f GB  returned %5.1f GB\n",
		c("wq_bytes_in_total")/1e9, c("wq_bytes_out_total")/1e9)
	fmt.Printf("  monitor polls %5.0f   proc events %4.0f   kills %2.0f\n",
		c("lfm_polls_total"), c("lfm_proc_events_total"),
		c("lfm_kills_total", lfm.MetricsLabel{Key: "kind", Value: "memory"})+
			c("lfm_kills_total", lfm.MetricsLabel{Key: "kind", Value: "disk"})+
			c("lfm_kills_total", lfm.MetricsLabel{Key: "kind", Value: "cores"}))

	// Latency distributions from the built-in histograms.
	wait := reg.Histogram("wq_task_wait_seconds", lfm.MetricsTimeBuckets())
	exec := reg.Histogram("wq_task_exec_seconds", lfm.MetricsTimeBuckets())
	fmt.Println("\nlatency quantiles (seconds):")
	fmt.Printf("  %-18s p50 %6.1f   p90 %6.1f   max %6.1f\n",
		"queue wait", wait.Quantile(0.5), wait.Quantile(0.9), wait.Max())
	fmt.Printf("  %-18s p50 %6.1f   p90 %6.1f   max %6.1f\n",
		"task execution", exec.Quantile(0.5), exec.Quantile(0.9), exec.Max())

	fmt.Println("\nfor a per-task timeline of the same run, export a span trace with" +
		"\n`lfm bench -trace-out t.json -trace-format perfetto` and open it at" +
		"\nhttps://ui.perfetto.dev (or analyze t.json with lfm trace)")
}
