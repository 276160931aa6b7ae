package wq

import (
	"strconv"
	"time"

	"lfm/internal/metrics"
	"lfm/internal/monitor"
	"lfm/internal/sim"
)

// SetMetrics attaches a metrics registry to the master: pool and queue gauges
// are registered immediately, and the hot paths (placement, completion,
// scheduling rounds, worker churn) update the per-category and per-worker
// counters and the histograms from then on. Totals the master already keeps
// in its Stats reach the registry through FlushMetrics. Call it before
// submitting work; nil detaches. Runs without a registry pay only a nil check
// per hook.
func (m *Master) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		m.met = nil
		return
	}
	m.met = newMasterMetrics(m, reg)
}

// masterMetrics holds the master's registry instruments. All on* methods are
// nil-safe so uninstrumented masters skip straight through.
type masterMetrics struct {
	m   *Master
	reg *metrics.Registry

	placements *metrics.Counter

	waitSeconds *metrics.Histogram
	execSeconds *metrics.Histogram
}

func newMasterMetrics(m *Master, reg *metrics.Registry) *masterMetrics {
	reg.Help("wq_queue_depth", "ready tasks not yet placed on a worker")
	reg.Help("wq_workers", "connected pilot workers")
	reg.Help("wq_tasks_running", "tasks currently executing on workers")
	reg.Help("wq_cores_allocated", "cores allocated to running tasks across the pool")
	reg.Help("wq_cores_total", "cores provisioned across the pool")
	reg.Help("wq_cache_hit_ratio", "fraction of input stagings served from worker caches")
	reg.Help("wq_tasks_submitted_total", "tasks submitted to the master, by category")
	reg.Help("wq_tasks_completed_total", "tasks completed successfully, by category")
	reg.Help("wq_tasks_failed_total", "tasks failed for good, by category")
	reg.Help("wq_tasks_dep_failed_total", "tasks failed without executing because a dependency failed, by category")
	reg.Help("wq_placements_total", "task attempts started on workers")
	reg.Help("wq_retries_total", "resource-exhaustion retries")
	reg.Help("wq_tasks_lost_total", "task attempts lost to disconnected workers")
	reg.Help("wq_bytes_in_total", "bytes transferred master to workers")
	reg.Help("wq_bytes_out_total", "bytes transferred workers to master")
	reg.Help("wq_task_wait_seconds", "submit to first-execution latency")
	reg.Help("wq_task_exec_seconds", "wall time of successful attempts")
	reg.Help("wq_worker_cores_used", "cores allocated on one worker")
	reg.Help("wq_worker_cores_free", "cores free on one worker")

	reg.GaugeFunc("wq_queue_depth", func() float64 { return float64(m.QueueLen()) })
	reg.GaugeFunc("wq_workers", func() float64 { return float64(len(m.workers)) })
	reg.GaugeFunc("wq_tasks_running", func() float64 {
		n := 0
		for _, w := range m.workers {
			n += w.running
		}
		return float64(n)
	})
	reg.GaugeFunc("wq_cores_allocated", func() float64 {
		var c float64
		for _, w := range m.workers {
			c += w.usedCores
		}
		return c
	})
	reg.GaugeFunc("wq_cores_total", func() float64 {
		var c float64
		for _, w := range m.workers {
			c += w.Node.Cores
		}
		return c
	})
	reg.GaugeFunc("wq_cache_hit_ratio", func() float64 {
		total := m.stats.CacheHits + m.stats.CacheMisses
		if total == 0 {
			return 0
		}
		return float64(m.stats.CacheHits) / float64(total)
	})

	return &masterMetrics{
		m:           m,
		reg:         reg,
		placements:  reg.Counter("wq_placements_total"),
		waitSeconds: reg.Histogram("wq_task_wait_seconds", metrics.DefTimeBuckets()),
		execSeconds: reg.Histogram("wq_task_exec_seconds", metrics.DefTimeBuckets()),
	}
}

func categoryLabel(t *Task) metrics.Label {
	c := t.Category
	if c == "" {
		c = "default"
	}
	return metrics.L("category", c)
}

func workerLabel(w *Worker) metrics.Label {
	return metrics.L("worker", strconv.Itoa(w.Node.ID))
}

func (mm *masterMetrics) onSubmit(t *Task) {
	if mm != nil {
		mm.reg.Counter("wq_tasks_submitted_total", categoryLabel(t)).Inc()
	}
}

func (mm *masterMetrics) onDone(t *Task) {
	if mm != nil {
		mm.reg.Counter("wq_tasks_completed_total", categoryLabel(t)).Inc()
	}
}

func (mm *masterMetrics) onFail(t *Task) {
	if mm != nil {
		mm.reg.Counter("wq_tasks_failed_total", categoryLabel(t)).Inc()
	}
}

func (mm *masterMetrics) onDepFail(t *Task) {
	if mm != nil {
		mm.reg.Counter("wq_tasks_dep_failed_total", categoryLabel(t)).Inc()
	}
}

func (mm *masterMetrics) onPlace() {
	if mm != nil {
		mm.placements.Inc()
	}
}

func (mm *masterMetrics) onStart(t *Task) {
	if mm != nil {
		mm.waitSeconds.Observe(float64(t.StartedAt - t.SubmittedAt))
	}
}

func (mm *masterMetrics) onExec(wall sim.Time) {
	if mm != nil {
		mm.execSeconds.Observe(float64(wall))
	}
}

// FlushMetrics writes the totals the master counts in its own Stats into the
// attached registry: retries, lost attempts, cache hits and misses, bytes
// moved, and the resilience counters. The hot paths count each of these
// events once, in the master's fields. Call it when the run is over, before
// reading the registry (core.Run does); calling it again raises each counter
// to the current total, never past it. A resilience counter registers only
// once it is non-zero, so undisturbed runs keep a byte-identical registry
// dump.
func (m *Master) FlushMetrics() {
	mm := m.met
	if mm == nil {
		return
	}
	set := func(name string, v float64) {
		c := mm.reg.Counter(name)
		c.Add(v - c.Value())
	}
	st := &m.stats
	set("wq_retries_total", float64(st.Retries))
	set("wq_tasks_lost_total", float64(st.LostTasks))
	set("wq_cache_hits_total", float64(st.CacheHits))
	set("wq_cache_misses_total", float64(st.CacheMisses))
	set("wq_bytes_in_total", float64(st.BytesIn))
	set("wq_bytes_out_total", float64(st.BytesOut))
	rs := st.Resilience
	if rs == nil {
		return
	}
	for _, c := range []struct {
		name, help string
		v          int
	}{
		{"wq_speculative_launched_total", "backup copies launched for straggling tasks", rs.SpecLaunched},
		{"wq_speculative_wins_total", "backup copies that finished before the original", rs.SpecWins},
		{"wq_speculative_cancelled_total", "race-losing or dead speculative attempts cancelled", rs.SpecCancelled},
		{"wq_staging_retries_total", "failed input transfers retried under backoff", rs.StagingRetries},
		{"wq_staging_failures_total", "attempts failed by staging-transfer faults", rs.StagingFailures},
	} {
		if c.v > 0 {
			mm.reg.Help(c.name, c.help)
			set(c.name, float64(c.v))
		}
	}
}

// The remaining resilience instruments carry data the master's Stats do not
// keep (latency distributions, per-worker counts); they register lazily, on
// their first event, for the same byte-identical dump.

func (mm *masterMetrics) onSuspect(latency sim.Time) {
	if mm != nil {
		mm.reg.Help("wq_detection_latency_seconds", "worker death to heartbeat-suspicion latency")
		mm.reg.Histogram("wq_detection_latency_seconds", metrics.DefTimeBuckets()).Observe(float64(latency))
	}
}

func (mm *masterMetrics) onQuarantine(w *Worker) {
	if mm != nil {
		mm.reg.Help("wq_quarantines_total", "worker circuit-breaker trips, by worker")
		mm.reg.Counter("wq_quarantines_total", workerLabel(w)).Inc()
	}
}

// onSchedPass records one scheduling round: its candidates-examined count
// and wall-clock duration. Registered lazily like the resilience
// instruments, though in practice the first round fires immediately.
func (mm *masterMetrics) onSchedPass(candidates int64, dur time.Duration) {
	if mm == nil {
		return
	}
	mm.reg.Help("wq_sched_rounds_total", "scheduling rounds run by the matcher")
	mm.reg.Counter("wq_sched_rounds_total").Inc()
	mm.reg.Help("wq_sched_candidates", "workers tested for fit per scheduling round")
	mm.reg.Histogram("wq_sched_candidates", metrics.ExpBuckets(1, 4, 12)).Observe(float64(candidates))
	mm.reg.Help("wq_sched_round_seconds", "wall-clock duration of one scheduling round")
	mm.reg.Histogram("wq_sched_round_seconds", metrics.ExpBuckets(1e-7, 4, 14)).Observe(dur.Seconds())
}

// onReport exports what the allocation strategy actually observed: the
// per-category distributions of completed-attempt peaks and time-to-peak.
// Registered lazily on the first completed report, so runs without
// completions keep a byte-identical registry dump.
func (mm *masterMetrics) onReport(t *Task, rep monitor.Report) {
	if mm == nil || !rep.Completed {
		return
	}
	cl := categoryLabel(t)
	mm.reg.Help("lfm_category_peak_mem_mb", "peak memory of completed attempts, by category")
	mm.reg.Histogram("lfm_category_peak_mem_mb", metrics.ExpBuckets(16, 2, 16), cl).Observe(rep.Peak.MemoryMB)
	mm.reg.Help("lfm_category_peak_cores", "peak cores of completed attempts, by category")
	mm.reg.Histogram("lfm_category_peak_cores", metrics.ExpBuckets(0.5, 2, 10), cl).Observe(rep.Peak.Cores)
	mm.reg.Help("lfm_category_peak_disk_mb", "peak disk of completed attempts, by category")
	mm.reg.Histogram("lfm_category_peak_disk_mb", metrics.ExpBuckets(16, 2, 16), cl).Observe(rep.Peak.DiskMB)
	mm.reg.Help("lfm_category_time_to_peak_seconds", "start to last peak increase of completed attempts, by category")
	mm.reg.Histogram("lfm_category_time_to_peak_seconds", metrics.DefTimeBuckets(), cl).Observe(float64(rep.TimeToPeak))
}

func (mm *masterMetrics) onWorkerJoin(w *Worker) {
	if mm == nil {
		return
	}
	mm.reg.GaugeFunc("wq_worker_cores_used", func() float64 { return w.usedCores }, workerLabel(w))
	mm.reg.GaugeFunc("wq_worker_cores_free", func() float64 { return w.free().Cores }, workerLabel(w))
}

func (mm *masterMetrics) onWorkerLeave(w *Worker) {
	if mm == nil {
		return
	}
	mm.reg.Unregister("wq_worker_cores_used", workerLabel(w))
	mm.reg.Unregister("wq_worker_cores_free", workerLabel(w))
}
