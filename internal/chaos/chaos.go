// Package chaos is a deterministic fault-injection engine for simulated
// runs: a declarative schedule of faults (worker crashes, stragglers,
// shared-filesystem latency spikes and outages, staging-transfer failures,
// batch-provisioning rejections, and failed monitor kills) is injected into
// the master, cluster, and filesystem through the hooks those layers expose.
// Everything is driven by an explicit RNG, so a fixed seed replays the exact
// same disaster — the property that makes chaos runs debuggable and lets
// tests assert byte-identical outcomes.
package chaos

import (
	"fmt"
	"sort"

	"lfm/internal/cluster"
	"lfm/internal/sim"
	"lfm/internal/trace"
	"lfm/internal/wq"
)

// FaultKind names one injectable failure mode.
type FaultKind string

// The injectable failure modes.
const (
	// WorkerCrash kills a worker's node abruptly (wq.Master.CrashWorker):
	// with heartbeats configured the master pays real detection latency.
	WorkerCrash FaultKind = "worker-crash"
	// WorkerSlow stretches runtimes of executions started on one worker by
	// Factor — a straggling node (thermal throttling, a noisy neighbour).
	WorkerSlow FaultKind = "worker-slow"
	// FSSlow adds Delay in front of every shared-filesystem operation for
	// Duration — a metadata storm on someone else's job.
	FSSlow FaultKind = "fs-slow"
	// FSOutage blocks shared-filesystem operations until the window ends —
	// a failover pause.
	FSOutage FaultKind = "fs-outage"
	// StagingFailure makes each staging transfer landing within the window
	// fail with probability Prob; the master retries under backoff.
	StagingFailure FaultKind = "staging-failure"
	// ProvisionReject makes the batch system reject pilot-job submissions
	// for Duration.
	ProvisionReject FaultKind = "provision-reject"
	// ZombieKill defers monitor enforcement kills issued within the window
	// by Delay, leaving zombie processes holding their allocations.
	ZombieKill FaultKind = "zombie-kill"
	// TenantStampede multiplies one serving tenant's arrival rate by Factor
	// for Duration — a client retry storm or misconfigured producer. Worker
	// picks the tenant by index (negative = random). No-op unless a serving
	// frontend is attached via SetServing.
	TenantStampede FaultKind = "tenant-stampede"
)

// Fault is one scheduled injection. Windowed kinds (fs-slow, fs-outage,
// staging-failure, provision-reject, zombie-kill) are active for Duration
// starting at At; worker kinds strike once at At.
type Fault struct {
	// Kind names the failure mode to inject.
	Kind FaultKind `json:",omitempty"`
	// At is when the fault strikes (windowed kinds start here).
	At sim.Time `json:",omitempty"`
	// Duration is the active window for windowed kinds; ignored otherwise.
	Duration sim.Time `json:",omitempty"`
	// Factor is the worker-slow runtime multiplier (default 4).
	Factor float64 `json:",omitempty"`
	// Prob is the per-transfer staging failure probability (default 1).
	Prob float64 `json:",omitempty"`
	// Delay is the fs-slow surcharge (default 50ms) or the zombie-kill
	// deferral (default 30s).
	Delay sim.Time `json:",omitempty"`
	// Worker picks the victim by index into the live-worker list at strike
	// time; negative picks uniformly at random.
	Worker int `json:",omitempty"`
	// Replace provisions a replacement after a worker-crash.
	Replace bool `json:",omitempty"`
}

// Schedule is a declarative fault plan for one run.
type Schedule struct {
	// Faults are the scheduled injections.
	Faults []Fault `json:",omitempty"`
	// ChurnMTBF, when positive, crashes a random live worker with
	// exponentially distributed inter-crash times — the continuous
	// pilot-jobs-hitting-batch-limits failure mode.
	ChurnMTBF sim.Time `json:",omitempty"`
	// ChurnReplace requests a replacement worker after each churn crash.
	ChurnReplace bool `json:",omitempty"`
}

// Validate rejects schedules the engine cannot honour, naming the fault
// and the offending field as it is spelled in a trace or archive header.
func (s *Schedule) Validate() error {
	for i, f := range s.Faults {
		switch f.Kind {
		case WorkerCrash, WorkerSlow, FSSlow, FSOutage, StagingFailure, ProvisionReject, ZombieKill, TenantStampede:
		default:
			return fmt.Errorf("chaos: fault %d has unknown Kind %q", i, f.Kind)
		}
		if f.At < 0 {
			return fmt.Errorf("chaos: fault %d (%s) has negative At %g", i, f.Kind, float64(f.At))
		}
		if f.Duration < 0 {
			return fmt.Errorf("chaos: fault %d (%s) has negative Duration %g", i, f.Kind, float64(f.Duration))
		}
		if f.Prob < 0 || f.Prob > 1 {
			return fmt.Errorf("chaos: fault %d (%s) has Prob %g outside [0,1]", i, f.Kind, f.Prob)
		}
	}
	if s.ChurnMTBF < 0 {
		return fmt.Errorf("chaos: negative ChurnMTBF %g", float64(s.ChurnMTBF))
	}
	return nil
}

// Report summarizes what a chaos engine actually did to a run.
type Report struct {
	// Injected counts applied faults by kind (staging-failure counts every
	// failed transfer, not the window).
	Injected map[FaultKind]int `json:",omitempty"`
	// Violations lists invariant-checker findings; empty means every
	// submitted task terminated and nothing leaked.
	Violations []string `json:",omitempty"`
}

// Summary renders the report as one line, kinds sorted for determinism.
func (r *Report) Summary() string {
	if len(r.Injected) == 0 {
		return "chaos: no faults injected"
	}
	kinds := make([]string, 0, len(r.Injected))
	for k := range r.Injected {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	s := "chaos:"
	for _, k := range kinds {
		s += fmt.Sprintf(" %s x%d", k, r.Injected[FaultKind(k)])
	}
	if len(r.Violations) > 0 {
		s += fmt.Sprintf(" — %d INVARIANT VIOLATIONS", len(r.Violations))
	}
	return s
}

// ServingDisruptor is the slice of the serving frontend the chaos engine
// needs for tenant-stampede faults and for knowing when an open-loop run is
// still in motion. Declared here (rather than importing internal/serve) so
// the dependency points serve→chaos-free in both directions.
type ServingDisruptor interface {
	// TenantCount reports the number of configured tenants.
	TenantCount() int
	// Stampede multiplies the tenant's arrival rate by factor for the
	// duration (non-positive duration = until the arrival window closes).
	Stampede(tenant int, factor float64, duration sim.Time)
	// Active reports whether arrivals or accepted work are still in motion.
	Active() bool
}

// Engine injects one schedule into one run. Zero-config layers are left
// untouched: hooks are installed only for the fault kinds the schedule
// actually contains.
type Engine struct {
	eng   *sim.Engine
	sched Schedule
	// rng drives victim picks, churn timing and staging-failure coin flips.
	rng *sim.RNG

	m       *wq.Master
	cl      *cluster.Cluster
	st      *trace.Store
	serving ServingDisruptor
	checks  []func() error
	replace func()
	// observer, if set, is told about every injection as it is counted
	// (the obs snapshot bus's chaos ticker rides on it).
	observer func(FaultKind)

	rep Report

	stagingUntil   sim.Time
	stagingProb    float64
	provisionUntil sim.Time
	fsUntil        sim.Time
	fsDelay        sim.Time
	fsOutage       bool
	zombieUntil    sim.Time
	zombieDelay    sim.Time
}

// New builds an engine for the schedule. rng is the fault stream — callers
// seed it independently of the workload so the same disaster can replay over
// different workloads (and vice versa).
func New(eng *sim.Engine, sched Schedule, rng *sim.RNG) *Engine {
	return &Engine{eng: eng, sched: sched, rng: rng}
}

// Bind attaches the layers the engine injects into. Call before Start.
func (e *Engine) Bind(m *wq.Master, cl *cluster.Cluster) {
	e.m = m
	e.cl = cl
}

// SetTrace records injections as chaos spans in the store (nil detaches).
func (e *Engine) SetTrace(st *trace.Store) { e.st = st }

// SetObserver installs (or, with nil, removes) a callback fired on every
// counted injection. Observation is passive: it runs after the count and
// must not inject, reschedule, or otherwise touch the run.
func (e *Engine) SetObserver(fn func(FaultKind)) { e.observer = fn }

// SetReplacer installs the callback that provisions one replacement worker
// after a crash with Replace (or churn with ChurnReplace).
func (e *Engine) SetReplacer(fn func()) { e.replace = fn }

// SetServing attaches a serving frontend: tenant-stampede faults apply to
// it, and the churn loop keeps shaking the cluster while the open-loop run
// is active even when the master is momentarily drained.
func (e *Engine) SetServing(sd ServingDisruptor) { e.serving = sd }

// AddCheck registers an extra invariant checker run by Finish alongside the
// master's (the serving frontend's reconciliation check rides on it).
func (e *Engine) AddCheck(fn func() error) { e.checks = append(e.checks, fn) }

// Report returns the injection counts and invariant findings so far.
func (e *Engine) Report() *Report { return &e.rep }

// Start validates the schedule, installs hooks for the fault kinds present,
// and schedules every injection. Call during setup, before the engine runs.
func (e *Engine) Start() error {
	if err := e.sched.Validate(); err != nil {
		return err
	}
	if e.m == nil {
		return fmt.Errorf("chaos: Start before Bind")
	}
	kinds := map[FaultKind]bool{}
	for _, f := range e.sched.Faults {
		kinds[f.Kind] = true
	}
	if kinds[StagingFailure] {
		e.m.SetStagingFault(func(w *wq.Worker, f *wq.File) bool {
			if e.eng.Now() >= e.stagingUntil || e.rng.Float64() >= e.stagingProb {
				return false
			}
			e.count(StagingFailure)
			return true
		})
	}
	if (kinds[FSSlow] || kinds[FSOutage]) && e.cl != nil {
		e.cl.FS.SetDisruptor(func() sim.Time {
			now := e.eng.Now()
			if now >= e.fsUntil {
				return 0
			}
			if e.fsOutage {
				return e.fsUntil - now
			}
			return e.fsDelay
		})
	}
	if kinds[ProvisionReject] && e.cl != nil {
		e.cl.SetGate(func(n int) error {
			if now := e.eng.Now(); now < e.provisionUntil {
				return fmt.Errorf("chaos: batch system rejecting submissions for another %.0fs",
					float64(e.provisionUntil-now))
			}
			return nil
		})
	}
	if kinds[ZombieKill] {
		e.m.SetKillDelay(func() sim.Time {
			if e.eng.Now() < e.zombieUntil {
				return e.zombieDelay
			}
			return 0
		})
	}
	for _, f := range e.sched.Faults {
		f := f
		e.eng.At(f.At, func() { e.apply(f) })
	}
	if e.sched.ChurnMTBF > 0 {
		e.startChurn()
	}
	return nil
}

// startChurn runs the continuous-crash loop: one Exponential draw per
// cycle, one Intn when a live worker exists.
func (e *Engine) startChurn() {
	mtbf := float64(e.sched.ChurnMTBF)
	rng := e.rng
	var churn func()
	churn = func() {
		st := e.m.Stats()
		drained := st.Completed+st.Failed >= st.Submitted && st.Submitted > 0
		if drained && (e.serving == nil || !e.serving.Active()) {
			return // workload drained; stop shaking the cluster
		}
		if live := e.m.LiveWorkers(); len(live) > 0 {
			victim := live[rng.Intn(len(live))]
			e.count(WorkerCrash)
			e.instant(WorkerCrash, fmt.Sprintf("churn: worker %d", victim.Node.ID))
			e.m.CrashWorker(victim)
			if e.sched.ChurnReplace && e.replace != nil {
				e.replace()
			}
		}
		e.eng.After(sim.Time(rng.Exponential(mtbf)), churn)
	}
	e.eng.After(sim.Time(rng.Exponential(mtbf)), churn)
}

// apply strikes one scheduled fault.
func (e *Engine) apply(f Fault) {
	now := e.eng.Now()
	switch f.Kind {
	case WorkerCrash:
		w := e.victim(f)
		if w == nil {
			return
		}
		e.count(f.Kind)
		e.instant(f.Kind, fmt.Sprintf("worker %d", w.Node.ID))
		e.m.CrashWorker(w)
		if f.Replace && e.replace != nil {
			e.replace()
		}
	case WorkerSlow:
		w := e.victim(f)
		if w == nil {
			return
		}
		factor := f.Factor
		if factor <= 1 {
			factor = 4
		}
		e.count(f.Kind)
		e.m.SlowWorker(w, factor)
		if f.Duration > 0 {
			e.window(f.Kind, fmt.Sprintf("worker %d x%.1f", w.Node.ID, factor), f.Duration)
			e.eng.After(f.Duration, func() { e.m.SlowWorker(w, 1) })
		} else {
			e.instant(f.Kind, fmt.Sprintf("worker %d x%.1f permanently", w.Node.ID, factor))
		}
	case FSSlow:
		d := f.Delay
		if d <= 0 {
			d = 50 * sim.Millisecond
		}
		e.fsOutage = false
		e.fsDelay = d
		e.fsUntil = now + f.Duration
		e.count(f.Kind)
		e.window(f.Kind, fmt.Sprintf("+%.0fms per op", float64(d)*1e3), f.Duration)
	case FSOutage:
		e.fsOutage = true
		e.fsUntil = now + f.Duration
		e.count(f.Kind)
		e.window(f.Kind, "filesystem unavailable", f.Duration)
	case StagingFailure:
		p := f.Prob
		if p <= 0 {
			p = 1
		}
		e.stagingProb = p
		e.stagingUntil = now + f.Duration
		e.window(f.Kind, fmt.Sprintf("p=%.2f per transfer", p), f.Duration)
	case ProvisionReject:
		e.provisionUntil = now + f.Duration
		e.count(f.Kind)
		e.window(f.Kind, "batch submissions rejected", f.Duration)
	case ZombieKill:
		d := f.Delay
		if d <= 0 {
			d = 30 * sim.Second
		}
		e.zombieDelay = d
		e.zombieUntil = now + f.Duration
		e.count(f.Kind)
		e.window(f.Kind, fmt.Sprintf("kills deferred %.0fs", float64(d)), f.Duration)
	case TenantStampede:
		if e.serving == nil {
			return // no serving frontend attached; nothing to stampede
		}
		n := e.serving.TenantCount()
		if n == 0 {
			return
		}
		idx := f.Worker
		if idx < 0 || idx >= n {
			idx = e.rng.Intn(n)
		}
		factor := f.Factor
		if factor <= 1 {
			factor = 8
		}
		e.count(f.Kind)
		detail := fmt.Sprintf("tenant %d arrivals x%.1f", idx, factor)
		if f.Duration > 0 {
			e.window(f.Kind, detail, f.Duration)
		} else {
			e.instant(f.Kind, detail+" until window close")
		}
		e.serving.Stampede(idx, factor, f.Duration)
	}
}

// victim resolves a fault's target among the currently live workers.
func (e *Engine) victim(f Fault) *wq.Worker {
	live := e.m.LiveWorkers()
	if len(live) == 0 {
		return nil
	}
	if f.Worker >= 0 && f.Worker < len(live) {
		return live[f.Worker]
	}
	return live[e.rng.Intn(len(live))]
}

func (e *Engine) count(k FaultKind) {
	if e.rep.Injected == nil {
		e.rep.Injected = make(map[FaultKind]int)
	}
	e.rep.Injected[k]++
	if e.observer != nil {
		e.observer(k)
	}
}

// instant records a point-in-time injection as a chaos span.
func (e *Engine) instant(k FaultKind, detail string) {
	if e.st == nil {
		return
	}
	e.st.Instant(trace.Span{
		Kind: trace.KindChaos, Task: -1, Worker: -1,
		Outcome: trace.OutcomeOK, Detail: string(k) + ": " + detail,
	}, e.eng.Now())
}

// window records a windowed injection as a chaos span covering its duration.
func (e *Engine) window(k FaultKind, detail string, d sim.Time) {
	if e.st == nil {
		return
	}
	sp := e.st.Begin(trace.Span{
		Kind: trace.KindChaos, Task: -1, Worker: -1,
		Detail: string(k) + ": " + detail, Start: e.eng.Now(),
	})
	e.eng.After(d, func() { e.st.End(sp, e.eng.Now(), trace.OutcomeOK, "") })
}

// Finish runs the invariant checker against the drained master — plus any
// extra checkers registered with AddCheck — and folds findings into the
// report. A clean chaos run returns nil.
func (e *Engine) Finish() error {
	if err := e.m.CheckInvariants(); err != nil {
		e.rep.Violations = append(e.rep.Violations, err.Error())
	}
	for _, check := range e.checks {
		if err := check(); err != nil {
			e.rep.Violations = append(e.rep.Violations, err.Error())
		}
	}
	if len(e.rep.Violations) > 0 {
		return fmt.Errorf("chaos: %d invariant violations, first: %s",
			len(e.rep.Violations), e.rep.Violations[0])
	}
	return nil
}
