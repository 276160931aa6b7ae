package tseries

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"lfm/internal/artifact"
	"lfm/internal/monitor"
	"lfm/internal/sim"
)

func res(c, m, d float64) monitor.Resources {
	return monitor.Resources{Cores: c, MemoryMB: m, DiskMB: d}
}

// The tentpole memory bound: ≥10x the cap worth of measurements through one
// series must stay within the cap while preserving the exact peak.
func TestSeriesBoundedPeakExact(t *testing.T) {
	const cap = 16
	s := NewSeries(cap)
	n := cap * 10
	peak := res(0, 0, 0)
	for i := 0; i < n; i++ {
		u := res(1, float64(100+i%37), 10)
		if i == n/2 {
			u.MemoryMB = 5000 // single-sample spike the decimation must keep
		}
		peak = peak.Max(u)
		s.Add(sim.Time(i), u, SrcPoll)
	}
	if s.Raw() != n {
		t.Fatalf("raw = %d, want %d", s.Raw(), n)
	}
	if s.Len() > cap {
		t.Fatalf("series length %d exceeds cap %d", s.Len(), cap)
	}
	if s.Stride() <= 1 {
		t.Fatalf("stride = %d, expected decimation to have kicked in", s.Stride())
	}
	if s.Peak() != peak {
		t.Fatalf("peak = %v, want %v", s.Peak(), peak)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The spike must survive in the retained points, not just the scalar.
	var max monitor.Resources
	for _, p := range s.Points() {
		max = max.Max(p.U)
	}
	if max.MemoryMB != 5000 {
		t.Fatalf("downsampled series lost the spike: max %v", max)
	}
}

func TestSeriesDeterministic(t *testing.T) {
	build := func() []Point {
		s := NewSeries(32)
		for i := 0; i < 500; i++ {
			s.Add(sim.Time(i)*sim.Second/4, res(1, float64(i%91), float64(i%13)), SrcPoll)
		}
		return s.Points()
	}
	if !reflect.DeepEqual(build(), build()) {
		t.Fatal("identical Add sequences produced different series")
	}
}

func TestSeriesDeltasSpanDuration(t *testing.T) {
	s := NewSeries(8)
	times := []sim.Time{0, 1, 2.5, 7, 11, 30, 31, 31, 40, 100}
	for _, at := range times {
		s.Add(at, res(1, 10, 1), SrcPoll)
	}
	var span sim.Time
	for _, p := range s.Points() {
		if p.DT < 0 {
			t.Fatalf("negative delta %v", p.DT)
		}
		span += p.DT
	}
	want := times[len(times)-1] - times[0]
	if span != want {
		t.Fatalf("deltas span %v, want %v", span, want)
	}
}

func TestSummarize(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(99 - i) // reversed, summarize must sort
	}
	d := summarize(vals)
	if d.N != 100 || d.Max != 99 {
		t.Fatalf("n=%d max=%g", d.N, d.Max)
	}
	if d.P50 != 49 || d.P90 != 89 || d.P99 != 98 {
		t.Fatalf("p50=%g p90=%g p99=%g", d.P50, d.P90, d.P99)
	}
	if z := summarize(nil); z.N != 0 || z.Max != 0 {
		t.Fatalf("empty summary %+v", z)
	}
}

func TestLeakDetector(t *testing.T) {
	cfg := AnomalyConfig{}
	cfg.fillDefaults()
	var l leakState
	// Monotone growth: 16 MB/sample at 1 sample/s, 8 samples = +112MB over
	// 7s after the base — above both the slope and growth floors.
	fired := 0
	for i := 0; i < 20; i++ {
		fire, detail := l.observe(&cfg, sim.Time(i), res(1, float64(100+16*i), 0))
		if fire {
			fired++
			if detail == "" {
				t.Fatal("fired with empty detail")
			}
		}
	}
	if fired != 1 {
		t.Fatalf("leak fired %d times, want exactly once", fired)
	}

	// A decrease resets the monotone run: sawtooth usage never fires.
	var saw leakState
	for i := 0; i < 100; i++ {
		u := res(1, float64(100+50*(i%4)), 0)
		if fire, _ := saw.observe(&cfg, sim.Time(i), u); fire {
			t.Fatal("sawtooth usage flagged as leak")
		}
	}

	// Slow creep below the slope floor never fires either.
	var creep leakState
	for i := 0; i < 1000; i++ {
		u := res(1, 100+0.1*float64(i), 0)
		if fire, _ := creep.observe(&cfg, sim.Time(i), u); fire {
			t.Fatal("0.1 MB/s creep flagged as leak")
		}
	}
}

func TestFlatState(t *testing.T) {
	var f flatState
	f.observe(0, res(1, 100, 0))
	f.observe(10, res(1, 100, 0))
	if got := f.flatFor(30); got != 30 {
		t.Fatalf("flatFor = %v, want 30", got)
	}
	f.observe(40, res(1, 200, 0)) // usage changed: stretch restarts
	if got := f.flatFor(45); got != 5 {
		t.Fatalf("flatFor after change = %v, want 5", got)
	}
}

// buildRun drives a small synthetic run through a collector on a sim engine
// and returns the finalized telemetry.
func buildRun(t *testing.T, seed int64) *RunTelemetry {
	t.Helper()
	eng := sim.NewEngine(seed)
	cfg := DefaultConfig()
	cfg.SeriesCap = 16
	c := NewCollector(eng, cfg)
	c.SetLabelAudit(func(cat string) (monitor.Resources, bool) {
		if cat == "sim" {
			return res(1, 128, 50), true
		}
		return monitor.Resources{}, false
	})

	eng.At(0, func() {
		c.NodeJoin(1, res(8, 8000, 100000))
		c.NodeJoin(2, res(8, 8000, 100000))
	})
	for task := 0; task < 4; task++ {
		task := task
		start := sim.Time(task) * 5
		eng.At(start, func() {
			node := 1 + task%2
			c.NodeAlloc(node, res(2, 500, 100))
			rec := c.StartAttempt(task, 1, false, "sim", node, res(2, 500, 100))
			for i := 0; i < 200; i++ {
				at := start + sim.Time(i)*sim.Second/4
				u := res(1, float64(60+(task*31+i)%80), 20)
				eng.At(at, func() { rec.Observe(at, u, monitor.SourcePoll) })
			}
			end := start + 50*sim.Second
			eng.At(end, func() {
				c.FinishAttempt(rec, monitor.Report{
					Start: start, End: end, WallTime: end - start,
					Peak: res(1, 139, 20), MeanUsage: res(1, 100, 20),
					TimeToPeak: 10, Completed: true,
				})
				c.NodeAlloc(1+task%2, res(-2, -500, -100))
			})
		})
	}
	eng.Run()
	return c.Finalize(RunMeta{Workload: "synthetic", Strategy: "Auto", Workers: 2, Seed: seed, Makespan: eng.Now()})
}

func TestCollectorLifecycle(t *testing.T) {
	rt := buildRun(t, 7)
	if err := rt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(rt.Attempts) != 4 {
		t.Fatalf("attempts = %d, want 4", len(rt.Attempts))
	}
	for _, a := range rt.Attempts {
		if a.Outcome != "completed" {
			t.Fatalf("attempt %d outcome %q", a.Task, a.Outcome)
		}
		if len(a.Series) > rt.SeriesCap {
			t.Fatalf("attempt %d series %d > cap %d", a.Task, len(a.Series), rt.SeriesCap)
		}
		if a.RawMeasurements != 200 {
			t.Fatalf("attempt %d raw = %d", a.Task, a.RawMeasurements)
		}
	}
	if len(rt.Profiles) != 1 || rt.Profiles[0].Category != "sim" {
		t.Fatalf("profiles = %+v", rt.Profiles)
	}
	p := rt.Profiles[0]
	if p.Completed != 4 || p.PeakMemMB.N != 4 {
		t.Fatalf("profile completed=%d n=%d", p.Completed, p.PeakMemMB.N)
	}
	if p.Label == nil || p.Label.MemoryMB != 128 {
		t.Fatalf("label audit missing: %+v", p.Label)
	}
	// All peaks were 139MB > 128MB label: coverage 0.
	if p.LabelCoverage != 0 {
		t.Fatalf("coverage = %g, want 0", p.LabelCoverage)
	}
	if len(rt.Nodes) != 2 {
		t.Fatalf("nodes = %d", len(rt.Nodes))
	}
	// Each attempt allocated 2 cores for 50s: 4 attempts = 400 core-seconds.
	if got := rt.Util.AllocatedCoreSeconds; got != 400 {
		t.Fatalf("allocated core-seconds = %g, want 400", got)
	}
	if rt.Util.UsedCoreSeconds <= 0 || rt.Util.UsedCoreSeconds >= rt.Util.AllocatedCoreSeconds {
		t.Fatalf("used core-seconds = %g out of range", rt.Util.UsedCoreSeconds)
	}
	if rt.Util.WasteFraction <= 0 {
		t.Fatalf("waste fraction = %g, want positive", rt.Util.WasteFraction)
	}
}

func TestExportRoundTripAndDeterminism(t *testing.T) {
	rt := buildRun(t, 7)
	var b1, b2 bytes.Buffer
	if err := rt.WriteJSONL(&b1); err != nil {
		t.Fatal(err)
	}
	if err := rt.WriteJSONL(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("two exports of the same telemetry differ")
	}
	// A fresh identical run must export byte-identically too.
	var b3 bytes.Buffer
	if err := buildRun(t, 7).WriteJSONL(&b3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b3.Bytes()) {
		t.Fatal("same-seed rebuild exported different bytes")
	}

	runs, err := ReadJSONL(&b1)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("parsed %d runs", len(runs))
	}
	got := runs[0]
	if !reflect.DeepEqual(got.Meta, rt.Meta) || got.SeriesCap != rt.SeriesCap {
		t.Fatalf("meta mismatch: %+v vs %+v", got.Meta, rt.Meta)
	}
	if !reflect.DeepEqual(got.Attempts, rt.Attempts) {
		t.Fatal("attempts did not round-trip")
	}
	if !reflect.DeepEqual(got.Profiles, rt.Profiles) {
		t.Fatal("profiles did not round-trip")
	}
	if !reflect.DeepEqual(got.Util, rt.Util) {
		t.Fatal("util did not round-trip")
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	var csv bytes.Buffer
	if err := rt.WriteSeriesCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if csv.Len() == 0 || !bytes.HasPrefix(csv.Bytes(), []byte("task,attempt,")) {
		t.Fatalf("csv export malformed: %q", csv.String()[:40])
	}
}

func TestNilSafety(t *testing.T) {
	var c *Collector
	c.NodeJoin(1, res(1, 1, 1))
	c.NodeLeave(1)
	c.NodeAlloc(1, res(1, 1, 1))
	rec := c.StartAttempt(0, 1, false, "x", 1, res(1, 1, 1))
	if rec != nil {
		t.Fatal("nil collector returned a recorder")
	}
	rec.Observe(0, res(1, 1, 1), monitor.SourcePoll)
	c.FinishAttempt(rec, monitor.Report{})
	c.AbortAttempt(rec, "lost")
	if c.Flatlined(rec, 100) {
		t.Fatal("nil collector flagged a flatline")
	}
	if rt := c.Finalize(RunMeta{}); rt != nil {
		t.Fatal("nil collector finalized non-nil telemetry")
	}
}

func TestCollectorAnomalies(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	c := NewCollector(eng, cfg)
	c.SetCategoryMeans(func(string) (float64, int) { return 10, 5 })
	eng.At(0, func() {
		c.NodeJoin(1, res(8, 8000, 1000))
		leaky := c.StartAttempt(1, 1, false, "leak", 1, res(2, 1000, 10))
		flat := c.StartAttempt(2, 1, false, "flat", 1, res(2, 1000, 10))
		for i := 0; i < 60; i++ {
			at := sim.Time(i) * sim.Second
			mem := float64(100 + 20*i) // 20 MB/s monotone growth
			eng.At(at, func() {
				leaky.Observe(at, res(1, mem, 10), monitor.SourcePoll)
				flat.Observe(at, res(1, 50, 10), monitor.SourcePoll)
			})
		}
		eng.At(100, func() {
			// Category mean 10s, age 100s >> 2x mean, flat > 30s: flags once.
			if !c.Flatlined(flat, 100) {
				t.Error("expected flatline")
			}
			if !c.Flatlined(flat, 100) {
				t.Error("flatline should remain true on re-query")
			}
			c.AbortAttempt(leaky, "lost")
			c.AbortAttempt(flat, "lost")
		})
	})
	eng.Run()
	rt := c.Finalize(RunMeta{})
	var kinds []string
	for _, a := range rt.Anomalies {
		kinds = append(kinds, fmt.Sprintf("%s/%d", a.Kind, a.Task))
	}
	if len(rt.Anomalies) != 2 {
		t.Fatalf("anomalies = %v, want one leak and one flatline", kinds)
	}
	if rt.Anomalies[0].Kind != AnomalyMemLeak || rt.Anomalies[0].Task != 1 {
		t.Fatalf("first anomaly %+v", rt.Anomalies[0])
	}
	if rt.Anomalies[1].Kind != AnomalyFlatline || rt.Anomalies[1].Task != 2 {
		t.Fatalf("second anomaly %+v", rt.Anomalies[1])
	}
}

// TestExportSchemaVersion checks the telemetry export version contract:
// current exports stamp ExportVersion on the meta line, version-0
// (pre-versioning) exports still parse, and an export from a newer writer
// is refused with a typed *artifact.Error (bad-version).
func TestExportSchemaVersion(t *testing.T) {
	rt := buildRun(t, 7)
	var buf bytes.Buffer
	if err := rt.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf(`"schema_version":%d`, ExportVersion); !strings.Contains(buf.String(), want) {
		t.Fatalf("export meta line lacks %s", want)
	}

	legacy := `{"type":"meta","meta":{"makespan":1,"series_cap":64}}` + "\n"
	if runs, err := ReadJSONL(strings.NewReader(legacy)); err != nil || len(runs) != 1 {
		t.Fatalf("version-0 export: %v, %d runs", err, len(runs))
	}

	future := `{"type":"meta","meta":{"schema_version":99,"makespan":1,"series_cap":64}}` + "\n"
	_, err := ReadJSONL(strings.NewReader(future))
	var ve *artifact.Error
	if !errors.As(err, &ve) || ve.Reason != artifact.BadVersion || ve.Version != 99 {
		t.Fatalf("future export error = %v, want a bad-version *artifact.Error refusing 99", err)
	}
}
