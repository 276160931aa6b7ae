package monitor

import (
	"reflect"
	"testing"
	"testing/quick"

	"lfm/internal/metrics"
	"lfm/internal/sim"
	"lfm/internal/trace"
)

func res(c, m, d float64) Resources { return Resources{Cores: c, MemoryMB: m, DiskMB: d} }

func TestResourcesOps(t *testing.T) {
	a, b := res(1, 100, 10), res(2, 50, 20)
	if got := a.Add(b); got != res(3, 150, 30) {
		t.Fatalf("Add = %v", got)
	}
	if got := a.Max(b); got != res(2, 100, 20) {
		t.Fatalf("Max = %v", got)
	}
	if !a.Fits(res(1, 100, 10)) || a.Fits(res(1, 99, 10)) {
		t.Fatal("Fits wrong")
	}
	if got := a.Scale(2); got != res(2, 200, 20) {
		t.Fatalf("Scale = %v", got)
	}
}

func TestExceeds(t *testing.T) {
	limit := res(2, 100, 50)
	cases := []struct {
		u    Resources
		want Kind
	}{
		{res(1, 50, 10), KindNone},
		{res(1, 150, 10), KindMemory},
		{res(1, 50, 99), KindDisk},
		{res(3, 50, 10), KindCores},
		{res(3, 150, 99), KindMemory}, // memory checked first
	}
	for _, c := range cases {
		if got := Exceeds(c.u, limit); got != c.want {
			t.Errorf("Exceeds(%v) = %q, want %q", c.u, got, c.want)
		}
	}
	// Zero limits are unlimited.
	if got := Exceeds(res(100, 1e6, 1e6), Resources{}); got != KindNone {
		t.Fatalf("unlimited Exceeds = %q", got)
	}
}

func TestProcSpecUsage(t *testing.T) {
	spec := ProcSpec{
		Phases: []Phase{
			{Duration: 10, Usage: res(1, 100, 0)},
			{Duration: 10, Usage: res(2, 300, 50)},
		},
		Children: []ChildSpec{
			{StartOffset: 5, Spec: Proc(10, res(1, 200, 0))},
		},
	}
	if got := spec.SelfDuration(); got != 20 {
		t.Fatalf("SelfDuration = %v", got)
	}
	if got := spec.Duration(); got != 20 {
		t.Fatalf("Duration = %v", got)
	}
	if got := spec.UsageAt(2); got != res(1, 100, 0) {
		t.Fatalf("UsageAt(2) = %v", got)
	}
	if got := spec.UsageAt(7); got != res(2, 300, 0) {
		t.Fatalf("UsageAt(7) = %v (parent phase1 + child)", got)
	}
	if got := spec.UsageAt(12); got != res(3, 500, 50) {
		t.Fatalf("UsageAt(12) = %v (parent phase2 + child)", got)
	}
	if got := spec.UsageAt(25); got != (Resources{}) {
		t.Fatalf("UsageAt(25) = %v, want zero", got)
	}
	peak := spec.TruePeak()
	if peak != res(3, 500, 50) {
		t.Fatalf("TruePeak = %v", peak)
	}
	if spec.countProcs() != 2 {
		t.Fatalf("countProcs = %d", spec.countProcs())
	}
}

func TestOrphanedChildExtendsDuration(t *testing.T) {
	// Parent exits at 5 but its child runs until 20: the tree is alive
	// until 20 (the reason the paper tracks fork/exit with LD_PRELOAD).
	spec := ProcSpec{
		Phases:   []Phase{{Duration: 5, Usage: res(1, 10, 0)}},
		Children: []ChildSpec{{StartOffset: 2, Spec: Proc(18, res(1, 50, 0))}},
	}
	if got := spec.Duration(); got != 20 {
		t.Fatalf("Duration = %v, want 20", got)
	}
}

func runOne(t *testing.T, cfg Config, spec ProcSpec, limits Resources) Report {
	t.Helper()
	eng := sim.NewEngine(1)
	m := New(eng, cfg)
	var rep Report
	got := false
	eng.At(0, func() { m.Run(spec, limits, func(r Report) { rep = r; got = true }) })
	eng.Run()
	if !got {
		t.Fatal("monitor never reported")
	}
	return rep
}

func TestRunToCompletion(t *testing.T) {
	cfg := DefaultConfig()
	spec := Proc(10, res(1, 100, 10))
	rep := runOne(t, cfg, spec, res(2, 200, 100))
	if !rep.Completed || rep.Killed {
		t.Fatalf("report = %+v", rep)
	}
	if rep.WallTime != 10 {
		t.Fatalf("WallTime = %v, want 10", rep.WallTime)
	}
	if rep.Peak != res(1, 100, 10) {
		t.Fatalf("Peak = %v", rep.Peak)
	}
	if rep.Polls < 9 {
		t.Fatalf("Polls = %d, want ~10 at 1s interval", rep.Polls)
	}
}

func TestKillOnMemoryExhaustion(t *testing.T) {
	cfg := DefaultConfig()
	spec := ProcSpec{Phases: []Phase{
		{Duration: 5, Usage: res(1, 100, 0)},
		{Duration: 5, Usage: res(1, 800, 0)}, // exceeds at t=5
	}}
	rep := runOne(t, cfg, spec, res(2, 500, 0))
	if !rep.Killed || rep.Completed {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Exhausted != KindMemory {
		t.Fatalf("Exhausted = %q", rep.Exhausted)
	}
	// Killed at the first poll after the violation: within one interval.
	if rep.WallTime < 5 || rep.WallTime > 6+1e-9 {
		t.Fatalf("WallTime = %v, want kill shortly after 5s", rep.WallTime)
	}
}

func TestPollingMissesShortSpike(t *testing.T) {
	// A 100ms spike between 1s polls is invisible without process events —
	// the documented weakness of polling alone.
	cfg := Config{PollInterval: sim.Second, TrackProcessEvents: false}
	spec := ProcSpec{Phases: []Phase{
		{Duration: 0.45, Usage: res(1, 100, 0)},
		{Duration: 0.1, Usage: res(1, 900, 0)}, // spike
		{Duration: 0.35, Usage: res(1, 100, 0)},
	}}
	rep := runOne(t, cfg, spec, Resources{})
	if rep.Peak.MemoryMB >= 900 {
		t.Fatalf("Peak = %v; coarse polling should miss the spike", rep.Peak)
	}
}

func TestProcessEventsCatchForkedChild(t *testing.T) {
	// A child forked and exited between polls is caught only via events.
	spec := ProcSpec{
		Phases: []Phase{{Duration: 2, Usage: res(1, 100, 0)}},
		Children: []ChildSpec{
			{StartOffset: 0.3, Spec: Proc(0.2, res(1, 700, 0))},
		},
	}
	noEvents := runOne(t, Config{PollInterval: sim.Second, TrackProcessEvents: false}, spec, Resources{})
	withEvents := runOne(t, Config{PollInterval: sim.Second, TrackProcessEvents: true}, spec, Resources{})
	if noEvents.Peak.MemoryMB >= 800 {
		t.Fatalf("polling-only peak = %v, should miss child", noEvents.Peak)
	}
	if withEvents.Peak.MemoryMB < 800 {
		t.Fatalf("event-tracking peak = %v, should see child fork", withEvents.Peak)
	}
	if withEvents.ProcEvents < 2 {
		t.Fatalf("ProcEvents = %d, want fork+exit", withEvents.ProcEvents)
	}
}

func TestShortTaskMeasuredAtCompletion(t *testing.T) {
	// Tasks shorter than the poll interval still get a final measurement.
	cfg := Config{PollInterval: 10 * sim.Second, TrackProcessEvents: false}
	rep := runOne(t, cfg, Proc(0.5, res(1, 250, 5)), Resources{})
	if !rep.Completed {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Peak.MemoryMB != 250 {
		t.Fatalf("Peak = %v, want final measurement to catch usage", rep.Peak)
	}
}

func TestKillDoesNotReportTwice(t *testing.T) {
	eng := sim.NewEngine(1)
	m := New(eng, DefaultConfig())
	spec := Proc(10, res(1, 999, 0))
	count := 0
	eng.At(0, func() { m.Run(spec, res(1, 100, 0), func(Report) { count++ }) })
	eng.Run()
	if count != 1 {
		t.Fatalf("reported %d times, want 1", count)
	}
}

func TestCallbackInvoked(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	var calls int
	cfg.Callback = func(at sim.Time, cur Resources) { calls++ }
	m := New(eng, cfg)
	eng.At(0, func() { m.Run(Proc(5, res(1, 10, 0)), Resources{}, nil) })
	eng.Run()
	if calls < 4 {
		t.Fatalf("callback calls = %d, want one per poll", calls)
	}
}

func TestOverheadCharged(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Overhead = 0.5
	eng := sim.NewEngine(1)
	m := New(eng, cfg)
	var end sim.Time
	eng.At(0, func() {
		m.Run(Proc(1, res(1, 1, 0)), Resources{}, func(r Report) { end = eng.Now() })
	})
	eng.Run()
	if end != 1.5 {
		t.Fatalf("finished at %v, want 1.5 (0.5 overhead + 1 run)", end)
	}
}

// Property: the measured peak never exceeds the true peak, and with event
// tracking plus a final measurement a single-phase task is measured exactly.
func TestMeasuredPeakProperty(t *testing.T) {
	prop := func(durCs uint8, memRaw uint16, pollCs uint8) bool {
		dur := sim.Time(durCs%100+1) / 10  // 0.1..10s
		mem := float64(memRaw%4000) + 1    // 1..4000 MB
		poll := sim.Time(pollCs%50+1) / 10 // 0.1..5s
		spec := Proc(dur, res(1, mem, 0))
		eng := sim.NewEngine(3)
		m := New(eng, Config{PollInterval: poll, TrackProcessEvents: true})
		var rep Report
		eng.At(0, func() { m.Run(spec, Resources{}, func(r Report) { rep = r }) })
		eng.Run()
		truePeak := spec.TruePeak()
		if rep.Peak.MemoryMB > truePeak.MemoryMB+1e-9 {
			return false
		}
		return rep.Peak.MemoryMB == truePeak.MemoryMB
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// observed is one measurement seen by an Observer.
type observed struct {
	at  sim.Time
	u   Resources
	src Source
}

// runObserved is runOne with an Observer recording every measurement.
func runObserved(t *testing.T, cfg Config, spec ProcSpec, limits Resources) (Report, []observed) {
	t.Helper()
	eng := sim.NewEngine(1)
	m := New(eng, cfg)
	var rep Report
	var seen []observed
	got := false
	obs := func(at sim.Time, u Resources, src Source) { seen = append(seen, observed{at, u, src}) }
	eng.At(0, func() {
		m.RunObserved(spec, limits, nil, trace.NoSpan, obs, func(r Report) { rep = r; got = true })
	})
	eng.Run()
	if !got {
		t.Fatal("monitor never reported")
	}
	return rep, seen
}

func TestObserverSeesEveryMeasurement(t *testing.T) {
	spec := ProcSpec{
		Phases: []Phase{{Duration: 3, Usage: res(1, 100, 0)}},
		Children: []ChildSpec{
			{StartOffset: 1, Spec: Proc(1, res(1, 50, 0))},
		},
	}
	_, seen := runObserved(t, DefaultConfig(), spec, Resources{})
	if len(seen) < 4 {
		t.Fatalf("observer saw %d measurements", len(seen))
	}
	var sawEvent, sawPoll, sawChildUsage bool
	for i, s := range seen {
		if i > 0 && s.at < seen[i-1].at {
			t.Fatal("measurements not time-ordered")
		}
		switch s.src {
		case SourceEvent:
			sawEvent = true
		case SourcePoll:
			sawPoll = true
		}
		if s.u.MemoryMB == 150 {
			sawChildUsage = true
		}
	}
	if !sawEvent || !sawPoll {
		t.Fatalf("measurement kinds: event=%v poll=%v", sawEvent, sawPoll)
	}
	if !sawChildUsage {
		t.Fatal("observer never saw parent+child usage")
	}
}

// TestObserverIsPassive checks observation is opt-in and changes nothing:
// a plain Run and an observed run of the same task report identically.
func TestObserverIsPassive(t *testing.T) {
	spec := Proc(3, res(1, 10, 0))
	plain := runOne(t, DefaultConfig(), spec, Resources{})
	rep, seen := runObserved(t, DefaultConfig(), spec, Resources{})
	if !reflect.DeepEqual(plain, rep) {
		t.Fatalf("observed report differs:\nplain:    %+v\nobserved: %+v", plain, rep)
	}
	if len(seen) == 0 {
		t.Fatal("observer saw nothing")
	}
}

// Regression: the final measurement at completion must honor
// TrackProcessEvents — with event tracking disabled it used to increment
// ProcEvents and report a process-event measurement anyway, skewing
// ablation counts.
func TestFinalMeasurementHonorsEventConfig(t *testing.T) {
	cfg := Config{PollInterval: sim.Second, TrackProcessEvents: false}
	rep, seen := runObserved(t, cfg, Proc(2.5, res(1, 100, 0)), Resources{})
	if !rep.Completed {
		t.Fatalf("report = %+v", rep)
	}
	if rep.ProcEvents != 0 {
		t.Fatalf("ProcEvents = %d with event tracking disabled, want 0", rep.ProcEvents)
	}
	for _, s := range seen {
		if s.src == SourceEvent {
			t.Fatalf("process-event measurement at %v with event tracking disabled", s.at)
		}
	}
	// The measurement itself still happens: the peak is captured.
	if rep.Peak.MemoryMB != 100 {
		t.Fatalf("Peak = %v, final measurement lost", rep.Peak)
	}

	// With event tracking on, the root exit is a process event as before.
	on := runOne(t, Config{PollInterval: sim.Second, TrackProcessEvents: true}, Proc(2.5, res(1, 100, 0)), Resources{})
	if on.ProcEvents != 1 {
		t.Fatalf("ProcEvents = %d with event tracking enabled, want 1 (root exit)", on.ProcEvents)
	}
}

// Regression: aborting before the overhead event fires used to run finish()
// anyway, producing a report with Start == 0 and a WallTime spanning back to
// the epoch.
func TestAbortBeforeStartLeavesNoBogusReport(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.Overhead = 5
	m := New(eng, cfg)
	var ex *Execution
	eng.At(0, func() {
		ex = m.Run(Proc(10, res(1, 1, 0)), Resources{}, func(Report) {
			t.Error("aborted-before-start execution reported")
		})
	})
	eng.At(1, func() { ex.Abort() })
	eng.Run()
	if !ex.r.finished {
		t.Fatal("aborted run not marked finished")
	}
	if ex.r.rep.Start != 0 || ex.r.rep.End != 0 || ex.r.rep.WallTime != 0 {
		t.Fatalf("bogus report fabricated: %+v", ex.r.rep)
	}
	if eng.Pending() != 0 {
		t.Fatalf("pending events = %d after abort", eng.Pending())
	}
	ex.Abort() // idempotent
}

func TestLFMMetrics(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.Metrics = metrics.NewRegistry()
	m := New(eng, cfg)
	eng.At(0, func() {
		m.Run(Proc(5, res(1, 10, 0)), Resources{}, nil)                         // completes
		m.Run(Proc(5, res(1, 900, 0)), Resources{Cores: 2, MemoryMB: 100}, nil) // killed
	})
	eng.Run()
	reg := cfg.Metrics
	if got := reg.Counter("lfm_runs_total").Value(); got != 2 {
		t.Fatalf("runs = %v", got)
	}
	if got := reg.Counter("lfm_completions_total").Value(); got != 1 {
		t.Fatalf("completions = %v", got)
	}
	if got := reg.Counter("lfm_kills_total", metrics.L("kind", "memory")).Value(); got != 1 {
		t.Fatalf("memory kills = %v", got)
	}
	if reg.Counter("lfm_polls_total").Value() == 0 {
		t.Fatal("polls not counted")
	}
}

func TestKillDelayLeavesZombie(t *testing.T) {
	// A failing kill signal leaves a zombie: the violation is detected at the
	// first poll after t=5, but the process lingers ~30s more, consuming its
	// allocation until the deferred kill lands.
	cfg := DefaultConfig()
	spec := ProcSpec{Phases: []Phase{
		{Duration: 5, Usage: res(1, 100, 0)},
		{Duration: 60, Usage: res(1, 800, 0)}, // exceeds at t=5
	}}
	eng := sim.NewEngine(1)
	m := New(eng, cfg)
	m.SetKillDelay(func() sim.Time { return 30 })
	var rep Report
	eng.At(0, func() { m.Run(spec, res(2, 500, 0), func(r Report) { rep = r }) })
	eng.Run()
	if !rep.Killed || !rep.Zombie || rep.Completed {
		t.Fatalf("report = %+v, want killed zombie", rep)
	}
	if rep.Exhausted != KindMemory {
		t.Fatalf("Exhausted = %q", rep.Exhausted)
	}
	// Violation detected within one poll of t=5, kill lands 30s later.
	if rep.WallTime < 35-1e-6 || rep.WallTime > 36+1e-9 {
		t.Fatalf("WallTime = %v, want ~violation + poll + 30s", rep.WallTime)
	}
}

func TestKillDelayZeroIsImmediate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.KillDelay = func() sim.Time { return 0 }
	spec := ProcSpec{Phases: []Phase{
		{Duration: 5, Usage: res(1, 100, 0)},
		{Duration: 60, Usage: res(1, 800, 0)},
	}}
	rep := runOne(t, cfg, spec, res(2, 500, 0))
	if !rep.Killed || rep.Zombie {
		t.Fatalf("report = %+v, want immediate kill, no zombie", rep)
	}
	if rep.WallTime < 5 || rep.WallTime > 6+1e-9 {
		t.Fatalf("WallTime = %v, want kill shortly after 5s", rep.WallTime)
	}
}
