package wq

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"lfm/internal/alloc"
	"lfm/internal/metrics"
	"lfm/internal/monitor"
	"lfm/internal/obs"
	"lfm/internal/sim"
)

func TestMasterMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	eng, m := testRig(t, 2, quickCfg(&alloc.Oracle{Peaks: map[string]monitor.Resources{
		"t": {Cores: 1, MemoryMB: 100, DiskMB: 10}}}))
	m.SetMetrics(reg)
	env := &File{Name: "env.tar", SizeBytes: 1e9, Cacheable: true}
	tasks := make([]*Task, 4)
	for i := range tasks {
		tasks[i] = simpleTask(i, 10, 100)
		tasks[i].Inputs = []*File{env}
		tasks[i].OutputBytes = 1e6
	}
	eng.At(0, func() {
		for _, tk := range tasks {
			m.Submit(tk)
		}
	})
	eng.Run()
	m.FlushMetrics()

	cat := metrics.L("category", "t")
	if got := reg.Counter("wq_tasks_submitted_total", cat).Value(); got != 4 {
		t.Fatalf("submitted = %v", got)
	}
	if got := reg.Counter("wq_tasks_completed_total", cat).Value(); got != 4 {
		t.Fatalf("completed = %v", got)
	}
	if got := reg.Counter("wq_placements_total").Value(); got != 4 {
		t.Fatalf("placements = %v", got)
	}
	if got := reg.Counter("wq_bytes_out_total").Value(); got != 4e6 {
		t.Fatalf("bytes out = %v", got)
	}
	// One transfer of env.tar per worker; the rest are cache hits (or
	// piggybacked onto an in-flight transfer, which also counts as a hit).
	in := reg.Counter("wq_bytes_in_total").Value()
	if in != float64(2*env.SizeBytes) {
		t.Fatalf("bytes in = %v, want 2 transfers", in)
	}
	hits := reg.Counter("wq_cache_hits_total").Value()
	miss := reg.Counter("wq_cache_misses_total").Value()
	if hits != 2 || miss != 2 {
		t.Fatalf("cache hits/misses = %v/%v, want 2/2", hits, miss)
	}
	if got, want := float64(m.stats.CacheHits), hits; got != want {
		t.Fatalf("counter %v != stats %v", want, got)
	}

	// Pool gauges reflect the drained end state.
	check := func(name string, want float64) {
		t.Helper()
		if got := reg.Gauge(name).Value(); got != want {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
	}
	check("wq_queue_depth", 0)
	check("wq_workers", 2)
	check("wq_tasks_running", 0)
	check("wq_cores_allocated", 0)
	check("wq_cores_total", 16) // 2 ndcrc nodes x 8 cores
	check("wq_cache_hit_ratio", 0.5)

	if n := reg.Histogram("wq_task_exec_seconds", metrics.DefTimeBuckets()).Count(); n != 4 {
		t.Fatalf("exec histogram count = %d", n)
	}

	// Per-worker gauges exist while the worker lives and disappear with it.
	w := m.workers[0]
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "wq_worker_cores_free{") {
		t.Fatalf("per-worker gauges missing:\n%s", buf.String())
	}
	m.RemoveWorker(w)
	buf.Reset()
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "wq_worker_cores_free{") != 1 {
		t.Fatalf("removed worker's gauges still exported:\n%s", buf.String())
	}
}

func TestMasterMetricsFoldsStats(t *testing.T) {
	// A task peaking at 800MB under a 200MB guess is killed once and
	// retried: the registry's retry total comes from the master's Stats,
	// and flushing again neither double-counts nor loses it.
	reg := metrics.NewRegistry()
	g := &alloc.Guess{Fixed: monitor.Resources{Cores: 1, MemoryMB: 200, DiskMB: 100}}
	eng, m := testRig(t, 1, quickCfg(g))
	m.SetMetrics(reg)
	eng.At(0, func() { m.Submit(simpleTask(1, 10, 800)) })
	eng.Run()
	if got := reg.Counter("wq_retries_total").Value(); got != 0 {
		t.Fatalf("retries before flush = %v, want 0", got)
	}
	for i := 0; i < 2; i++ {
		m.FlushMetrics()
		if got := reg.Counter("wq_retries_total").Value(); got != 1 || m.stats.Retries != 1 {
			t.Fatalf("flush %d: retries counter = %v, stats = %d, want 1", i+1, got, m.stats.Retries)
		}
	}
	// Undisturbed runs register no resilience counter.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "wq_speculative") || strings.Contains(buf.String(), "wq_staging") {
		t.Fatalf("resilience counters registered on an undisturbed run:\n%s", buf.String())
	}
}

func TestMasterObsAllocatedTimeline(t *testing.T) {
	// End-to-end: the obs snapshot bus over a master yields a
	// cores-allocated timeline that rises while tasks run and returns to
	// zero at the end, without scheduling a single engine event.
	eng, m := testRig(t, 1, quickCfg(&alloc.Oracle{Peaks: map[string]monitor.Resources{
		"t": {Cores: 1, MemoryMB: 100, DiskMB: 10}}}))
	bus, err := obs.NewBus(eng, &obs.Config{Cadence: sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	m.SetObs(bus)
	eng.At(0, func() {
		for i := 0; i < 4; i++ {
			m.Submit(simpleTask(i, 10, 100))
		}
	})
	end := eng.Run()
	ro, err := bus.Finalize(end)
	if err != nil {
		t.Fatal(err)
	}
	var peak float64
	for _, sn := range ro.Snapshots {
		peak = math.Max(peak, sn.AllocatedCores)
	}
	if peak != 4 {
		t.Fatalf("peak allocated = %v, want 4", peak)
	}
	if got := ro.Final.AllocatedCores; got != 0 {
		t.Fatalf("final allocated = %v, want 0", got)
	}
	if len(ro.Snapshots) < 10 {
		t.Fatalf("snapshots = %d, want full run coverage", len(ro.Snapshots))
	}
}
