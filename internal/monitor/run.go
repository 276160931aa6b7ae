package monitor

import (
	"fmt"

	"lfm/internal/metrics"
	"lfm/internal/sim"
	"lfm/internal/trace"
)

// Report is the outcome of one monitored task execution.
type Report struct {
	// Start and End are simulated timestamps of the run.
	Start, End sim.Time
	// WallTime is End - Start.
	WallTime sim.Time
	// Peak is the measured peak usage. With coarse polling and event
	// tracking disabled this may underestimate the true peak.
	Peak Resources
	// Completed is true if the task ran to completion.
	Completed bool
	// Killed is true if the monitor terminated the task.
	Killed bool
	// Zombie is true if the first kill attempt failed to take effect
	// immediately (injected kill-failure) and the task lingered.
	Zombie bool
	// Exhausted names the limit dimension that triggered the kill.
	Exhausted Kind
	// Polls counts polling measurements taken.
	Polls int
	// ProcEvents counts fork/exit events observed.
	ProcEvents int
	// Procs is the number of processes in the task's tree.
	Procs int
	// FirstExceeded records the first observed limit violation: the tripped
	// dimension, the observed value, and when. Its Kind is KindNone when no
	// measurement ever exceeded a limit. With a kill delay (zombie) the
	// violation time precedes End by the delay; on a clean kill they match.
	FirstExceeded Exceedance
	// MeanUsage is the time-weighted mean of the measured usage over the
	// run (the last measurement's value for zero-length runs). Compared to
	// Peak it captures the usage shape: mean near peak means flat usage,
	// mean far below means spiky.
	MeanUsage Resources
	// TimeToPeak is the offset from Start of the last measurement that
	// raised the peak in any dimension — how long until the task's footprint
	// was fully established.
	TimeToPeak sim.Time
}

// Exceedance describes one observed limit violation.
type Exceedance struct {
	// Kind is the dimension that tripped.
	Kind Kind
	// Value is the observed usage in that dimension at the violation.
	Value float64
	// At is the simulated time of the observation.
	At sim.Time
}

// Source names what triggered an observed measurement.
type Source int

const (
	// SourcePoll is a periodic polling measurement.
	SourcePoll Source = iota
	// SourceEvent is a fork/exit-triggered measurement.
	SourceEvent
	// SourceFinal is the final measurement at task completion.
	SourceFinal
)

// Observer receives every measurement of an observed run, in time order.
// Observers must be passive: they may record what they see but must not
// schedule simulation events or mutate the run.
type Observer func(at sim.Time, u Resources, src Source)

// Config parameterizes an LFM.
type Config struct {
	// PollInterval is the /proc polling period. The paper notes polling
	// alone suffices "for tasks that run for more than a handful of
	// seconds, and that do not fork themselves".
	PollInterval sim.Time
	// TrackProcessEvents enables the LD_PRELOAD-style fork/exit hooks that
	// trigger an immediate measurement on every process creation and exit.
	TrackProcessEvents bool
	// Overhead is the fixed cost the LFM adds around a task (establishing
	// the result queue, forking the task process, final reporting). Paper
	// §VI: Python-specific techniques keep this low enough for per-call
	// containment.
	Overhead sim.Time
	// Callback, if set, runs at the end of each polling interval with the
	// current measurement — the decorator callback of §VI-B1.
	Callback func(at sim.Time, current Resources)
	// KillDelay, if set, is consulted when the monitor decides to kill a
	// task; a positive return defers the effective kill by that long while
	// the task keeps running (and being measured) — a zombie left behind by
	// a failed SIGKILL delivery. Fault injection uses this hook; nil means
	// kills are immediate.
	KillDelay func() sim.Time
	// Metrics, when non-nil, registers LFM instruments (polls, process
	// events, kills by resource kind) on the registry and updates them for
	// every run under this monitor.
	Metrics *metrics.Registry
}

// DefaultConfig returns a 1-second poll with event tracking enabled.
func DefaultConfig() Config {
	return Config{
		PollInterval:       sim.Second,
		TrackProcessEvents: true,
		Overhead:           20 * sim.Millisecond,
	}
}

// LFM is a lightweight function monitor bound to a simulation engine.
type LFM struct {
	Eng *sim.Engine
	Cfg Config

	met *lfmMetrics
}

// New returns an LFM on the engine.
func New(eng *sim.Engine, cfg Config) *LFM {
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = sim.Second
	}
	m := &LFM{Eng: eng, Cfg: cfg}
	if cfg.Metrics != nil {
		m.met = newLFMMetrics(cfg.Metrics)
	}
	return m
}

// lfmMetrics holds the monitor's registry instruments. All methods are
// nil-safe so uninstrumented runs pay only a nil check.
type lfmMetrics struct {
	runs        *metrics.Counter
	completions *metrics.Counter
	aborts      *metrics.Counter
	polls       *metrics.Counter
	procEvents  *metrics.Counter
	kills       map[Kind]*metrics.Counter
}

func newLFMMetrics(reg *metrics.Registry) *lfmMetrics {
	reg.Help("lfm_kills_total", "tasks killed by the monitor, by exhausted resource kind")
	kills := make(map[Kind]*metrics.Counter, 3)
	for _, k := range []Kind{KindCores, KindMemory, KindDisk} {
		kills[k] = reg.Counter("lfm_kills_total", metrics.L("kind", string(k)))
	}
	return &lfmMetrics{
		runs:        reg.Counter("lfm_runs_total"),
		completions: reg.Counter("lfm_completions_total"),
		aborts:      reg.Counter("lfm_aborts_total"),
		polls:       reg.Counter("lfm_polls_total"),
		procEvents:  reg.Counter("lfm_proc_events_total"),
		kills:       kills,
	}
}

func (lm *lfmMetrics) onRun() {
	if lm != nil {
		lm.runs.Inc()
	}
}

func (lm *lfmMetrics) onPoll() {
	if lm != nil {
		lm.polls.Inc()
	}
}

func (lm *lfmMetrics) onProcEvent() {
	if lm != nil {
		lm.procEvents.Inc()
	}
}

func (lm *lfmMetrics) onKill(kind Kind) {
	if lm != nil {
		lm.kills[kind].Inc()
	}
}

func (lm *lfmMetrics) onComplete() {
	if lm != nil {
		lm.completions.Inc()
	}
}

func (lm *lfmMetrics) onAbort() {
	if lm != nil {
		lm.aborts.Inc()
	}
}

// run tracks one monitored execution in flight.
type run struct {
	m      *LFM
	spec   ProcSpec
	limits Resources
	start  sim.Time
	rep    Report
	done   func(Report)

	finished bool
	zombie   bool
	pollEv   sim.Event
	endEv    sim.Event
	zombieEv sim.Event
	procEvs  []sim.Event
	// pollFn is the polling tick closure, built once per run so each re-arm
	// does not allocate.
	pollFn func()

	// obs, if set, receives every measurement (telemetry streaming). The
	// mean-usage integral and last-measurement state back Report.MeanUsage.
	obs      Observer
	lastU    Resources
	lastAt   sim.Time
	haveU    bool
	integral Resources // componentwise usage integral (unit-seconds)

	// Span recording (nil/NoSpan when the run is untraced): parent is the
	// caller's execute span; ovSpan covers the monitor's setup overhead.
	tr       *trace.Store
	parent   trace.SpanID
	ovSpan   trace.SpanID
	trTask   int
	trWorker int
}

// Execution is a handle to an in-flight monitored run. Aborting it (e.g.
// because the hosting worker disappeared) cancels all monitoring events and
// suppresses the completion report.
type Execution struct {
	r       *run
	startEv sim.Event
}

// Abort cancels the execution; the done callback will not fire.
func (e *Execution) Abort() {
	r := e.r
	if r.finished {
		return
	}
	r.m.met.onAbort()
	if !e.startEv.Cancelled() {
		// The overhead event has not fired yet: monitoring never began, so
		// there is nothing to tear down and no measurements were taken.
		// Cancel the pending start and mark the run finished without
		// fabricating a report whose Start would be zero and whose WallTime
		// would span back to the epoch.
		r.m.Eng.Cancel(e.startEv)
		r.tr.End(r.ovSpan, r.m.Eng.Now(), trace.OutcomeAborted, "")
		r.finished = true
		r.done = nil
		return
	}
	r.done = nil
	r.finish(false)
}

// SetKillDelay installs (or, with nil, removes) the kill-failure hook on a
// live monitor; it applies to kills decided after the call.
func (m *LFM) SetKillDelay(fn func() sim.Time) { m.Cfg.KillDelay = fn }

// Run executes spec under the given limits (zero dimensions unlimited) and
// calls done with the report. The task is killed at the first measurement
// that observes a limit violation; between measurements violations go
// unseen, exactly as with a real polling monitor. The returned handle can
// abort the execution.
func (m *LFM) Run(spec ProcSpec, limits Resources, done func(Report)) *Execution {
	return m.RunTraced(spec, limits, nil, trace.NoSpan, done)
}

// RunTraced is Run with span recording: the monitor's setup overhead becomes
// an lfm-overhead child of parent, and every poll, fork/exit measurement, and
// kill is recorded as an instant under it. Recording is passive — a traced
// run schedules exactly the same simulation events as an untraced one.
func (m *LFM) RunTraced(spec ProcSpec, limits Resources, tr *trace.Store, parent trace.SpanID, done func(Report)) *Execution {
	return m.RunObserved(spec, limits, tr, parent, nil, done)
}

// RunObserved is RunTraced with a measurement observer: obs receives every
// measurement the monitor takes (polls, fork/exit events, the final one), in
// time order, after the peak is updated and before any kill decision. Like
// tracing, observation is passive — an observed run schedules exactly the
// same simulation events as a bare one.
func (m *LFM) RunObserved(spec ProcSpec, limits Resources, tr *trace.Store, parent trace.SpanID, obs Observer, done func(Report)) *Execution {
	r := &run{m: m, spec: spec, limits: limits, done: done, obs: obs,
		tr: tr, parent: parent, ovSpan: trace.NoSpan, trTask: -1, trWorker: -1}
	if tr != nil {
		psp := tr.Span(parent)
		r.trTask, r.trWorker = psp.Task, psp.Worker
		r.ovSpan = tr.Begin(trace.Span{
			Kind: trace.KindLFMOverhead, Parent: parent,
			Task: r.trTask, Category: psp.Category, Worker: r.trWorker,
			Start: m.Eng.Now(),
		})
	}
	ex := &Execution{r: r}
	m.met.onRun()
	ex.startEv = m.Eng.After(m.Cfg.Overhead, func() {
		r.tr.End(r.ovSpan, m.Eng.Now(), trace.OutcomeOK, "")
		r.start = m.Eng.Now()
		r.rep.Start = r.start
		r.rep.Procs = spec.countProcs()
		// Initial measurement at task start.
		r.measure(byPoll)
		if r.finished {
			return
		}
		r.schedulePoll()
		if m.Cfg.TrackProcessEvents {
			r.scheduleProcEvents(spec, r.start)
		}
		r.endEv = m.Eng.After(spec.Duration(), func() { r.complete() })
	})
	return ex
}

// measureSource names what triggered a measurement: a polling tick, a
// fork/exit process event, or the final measurement at task completion.
type measureSource int

const (
	byPoll measureSource = iota
	byProcEvent
	atCompletion
)

// measure samples current usage, updates the peak, and enforces limits.
func (r *run) measure(src measureSource) {
	if r.finished {
		return
	}
	now := r.m.Eng.Now()
	u := r.spec.UsageAt(now - r.start)
	switch src {
	case byPoll:
		r.rep.Polls++
		r.m.met.onPoll()
		r.traceInstant(trace.KindPoll, "")
		if cb := r.m.Cfg.Callback; cb != nil {
			cb(now, u)
		}
	case byProcEvent:
		r.rep.ProcEvents++
		r.m.met.onProcEvent()
		r.traceInstant(trace.KindProcEvent, "")
	case atCompletion:
		// The final measurement is the root process's exit: it is a process
		// event only when event tracking is enabled. Without it the
		// measurement still updates the peak but is charged to neither
		// channel, so ablation counts stay honest.
		if r.m.Cfg.TrackProcessEvents {
			r.rep.ProcEvents++
			r.m.met.onProcEvent()
		}
	}
	// Time-weighted mean: accrue the previous level over the elapsed gap.
	if r.haveU {
		dt := float64(now - r.lastAt)
		r.integral.Cores += r.lastU.Cores * dt
		r.integral.MemoryMB += r.lastU.MemoryMB * dt
		r.integral.DiskMB += r.lastU.DiskMB * dt
	}
	r.lastU, r.lastAt, r.haveU = u, now, true
	if u.Cores > r.rep.Peak.Cores+1e-9 || u.MemoryMB > r.rep.Peak.MemoryMB+1e-9 ||
		u.DiskMB > r.rep.Peak.DiskMB+1e-9 {
		r.rep.TimeToPeak = now - r.start
	}
	r.rep.Peak = r.rep.Peak.Max(u)
	if r.obs != nil {
		so := SourcePoll
		switch src {
		case byProcEvent:
			so = SourceEvent
		case atCompletion:
			so = SourceFinal
		}
		r.obs(now, u, so)
	}
	if kind := Exceeds(u, r.limits); kind != KindNone {
		if r.rep.FirstExceeded.Kind == KindNone {
			r.rep.FirstExceeded = Exceedance{Kind: kind, Value: dim(u, kind), At: now}
		}
		r.kill(kind)
	}
}

// dim extracts one dimension's value.
func dim(u Resources, kind Kind) float64 {
	switch kind {
	case KindCores:
		return u.Cores
	case KindDisk:
		return u.DiskMB
	default:
		return u.MemoryMB
	}
}

func (r *run) schedulePoll() {
	if r.pollFn == nil {
		r.pollFn = func() {
			r.measure(byPoll)
			if !r.finished {
				r.schedulePoll()
			}
		}
	}
	r.pollEv = r.m.Eng.After(r.m.Cfg.PollInterval, r.pollFn)
}

// scheduleProcEvents registers a measurement at every fork and exit in the
// tree. A real LFM learns these from the preloaded library; the simulation
// schedules them from the spec.
func (r *run) scheduleProcEvents(spec ProcSpec, base sim.Time) {
	for _, c := range spec.Children {
		at := base + c.StartOffset
		r.procEvs = append(r.procEvs, r.m.Eng.At(at, func() { r.measure(byProcEvent) }))
		exit := at + c.Spec.SelfDuration()
		r.procEvs = append(r.procEvs, r.m.Eng.At(exit, func() { r.measure(byProcEvent) }))
		r.scheduleProcEvents(c.Spec, at)
	}
}

// traceInstant records a monitor measurement under the caller's execute span.
func (r *run) traceInstant(kind trace.Kind, detail string) {
	if r.tr == nil {
		return
	}
	r.tr.Instant(trace.Span{
		Kind: kind, Parent: r.parent, Task: r.trTask, Worker: r.trWorker,
		Detail: detail,
	}, r.m.Eng.Now())
}

func (r *run) kill(kind Kind) {
	if r.zombie {
		return // kill already pending; the task lingers until it lands
	}
	if kd := r.m.Cfg.KillDelay; kd != nil {
		if d := kd(); d > 0 {
			// The kill signal failed to take effect: the task keeps running
			// (and being measured) until the delayed kill lands — unless it
			// completes naturally first, in which case finish() cancels it.
			r.zombie = true
			r.rep.Zombie = true
			r.traceInstant(trace.KindKill, string(kind)+" deferred (zombie)")
			r.zombieEv = r.m.Eng.After(d, func() { r.doKill(kind) })
			return
		}
	}
	r.doKill(kind)
}

func (r *run) doKill(kind Kind) {
	r.rep.Killed = true
	r.rep.Exhausted = kind
	r.m.met.onKill(kind)
	detail := string(kind)
	// Telemetry-observed runs enrich the kill span with the observed
	// violation; bare runs keep the pre-telemetry detail byte-for-byte.
	if r.obs != nil {
		if fe := r.rep.FirstExceeded; fe.Kind != KindNone {
			detail = fmt.Sprintf("%s: observed %.1f at t=%.1fs", fe.Kind, fe.Value, float64(fe.At))
		}
	}
	r.traceInstant(trace.KindKill, detail)
	r.finish(false)
}

func (r *run) complete() {
	// Final measurement at completion so short tasks are never unmeasured.
	r.measure(atCompletion)
	if !r.finished {
		r.m.met.onComplete()
		r.finish(true)
	}
}

func (r *run) finish(completed bool) {
	if r.finished {
		return
	}
	r.finished = true
	r.rep.Completed = completed
	r.rep.End = r.m.Eng.Now()
	r.rep.WallTime = r.rep.End - r.rep.Start
	if r.haveU {
		if dt := float64(r.rep.End - r.lastAt); dt > 0 {
			r.integral.Cores += r.lastU.Cores * dt
			r.integral.MemoryMB += r.lastU.MemoryMB * dt
			r.integral.DiskMB += r.lastU.DiskMB * dt
		}
		if w := float64(r.rep.WallTime); w > 0 {
			r.rep.MeanUsage = Resources{
				Cores:    r.integral.Cores / w,
				MemoryMB: r.integral.MemoryMB / w,
				DiskMB:   r.integral.DiskMB / w,
			}
		} else {
			r.rep.MeanUsage = r.lastU
		}
	}
	eng := r.m.Eng
	eng.Cancel(r.pollEv)
	eng.Cancel(r.endEv)
	eng.Cancel(r.zombieEv)
	for _, ev := range r.procEvs {
		eng.Cancel(ev)
	}
	done := r.done
	if done != nil {
		done(r.rep)
	}
}
