// Package serve is the simulator's open-loop serving frontend: a
// deterministic streaming-submission layer over the wq master, driven by
// per-tenant arrival processes (workloads.Arrival) instead of the batch
// runner's submit-everything-at-t=0 loop. It is where offered load meets
// capacity, so it owns the layered overload-protection pipeline:
//
//  1. Per-tenant token buckets rate-limit admission (drop reason
//     "throttled"); cooperative tenants wait for their token instead.
//  2. A graceful-degradation shed band between ShedWatermark and
//     MaxInflight drops arrivals from tenants at or over their fair share
//     (reason "shed"), lowest-priority tenants first — under sustained
//     overload the system serves a fair, priority-weighted subset at
//     bounded latency instead of growing an unbounded backlog.
//  3. A hard MaxInflight bound on accepted-but-unfinished work rejects
//     everything else (reason "queue-full") — the bounded intake queue.
//
// Non-cooperative tenants have dropped offers reported as a typed
// *Overload error through TenantConfig.OnOverload. Cooperative tenants are
// never dropped: their generators pause (backpressure) and resume FIFO as
// accepted work completes, so well-behaved clients trade throughput for
// zero loss. Accepted tasks are never shed retroactively — once submitted
// they run to completion or failure like any batch task.
//
// Everything is driven by the sim clock and per-tenant forked RNG streams,
// so a seeded serving run is byte-deterministic, and a run with serving
// disabled never constructs a frontend (its draw sequence is untouched).
package serve

import (
	"fmt"
	"math"
	"sort"

	"lfm/internal/metrics"
	"lfm/internal/obs"
	"lfm/internal/sim"
	"lfm/internal/workloads"
	"lfm/internal/wq"
)

// TenantConfig describes one traffic source on the serving frontend.
type TenantConfig struct {
	// Name labels the tenant in reports and Overload errors; default
	// "tenant-<index>".
	Name string
	// Arrival is the tenant's open-loop arrival process. Required.
	Arrival workloads.Arrival
	// Feed supplies the next task to offer on each arrival; nil return
	// means the source is exhausted. When unset, core wires all tenants to
	// a shared cursor over the workload's task list.
	Feed func() *wq.Task
	// Weight is the tenant's fair-share weight (default 1). Shedding
	// protects tenants still below weight-proportional share of accepted
	// work.
	Weight float64
	// Priority stamps accepted tasks (wq scheduling order) and orders the
	// shed bands: higher-priority tenants shed later under overload.
	Priority int
	// Rate, when positive, token-bucket rate-limits admission to this many
	// tasks per second; Burst is the bucket depth (default max(Rate, 1)).
	Rate  float64
	Burst float64
	// Cooperative marks a well-behaved generator: instead of dropping its
	// offers, the frontend backpressures it — the generator pauses and
	// resumes when capacity (or its token) frees up. Cooperative tenants
	// never lose tasks.
	Cooperative bool
	// OnOverload, when set, receives the typed error for every dropped
	// offer (never called for cooperative tenants). Observation only; it
	// must not call back into the frontend.
	OnOverload func(*Overload)
}

// Config parameterizes the serving frontend; set it on RunConfig.Serving.
type Config struct {
	// Window is how long arrivals are generated; the run then drains
	// naturally. Required.
	Window sim.Time
	// MaxInflight is the hard bound on accepted-but-unfinished tasks — the
	// bounded intake queue. Offers beyond it are rejected, never enqueued.
	// Required.
	MaxInflight int
	// ShedWatermark is where graceful shedding starts (default
	// 3/4 MaxInflight). Between watermark and MaxInflight, arrivals from
	// tenants at or over fair share are shed, lowest priority band first.
	ShedWatermark int
	// Tenants are the traffic sources; at least one is required.
	Tenants []TenantConfig
}

// Validate rejects unusable serving parameters with errors naming the
// offending field, before any simulation state exists.
func (c *Config) Validate() error {
	f := float64(c.Window)
	if math.IsNaN(f) || math.IsInf(f, 0) || c.Window <= 0 {
		return fmt.Errorf("serve: Window must be a positive finite duration, got %g", f)
	}
	if c.MaxInflight <= 0 {
		return fmt.Errorf("serve: MaxInflight must be > 0 (the intake queue is bounded, never unbounded), got %d", c.MaxInflight)
	}
	if c.ShedWatermark < 0 || c.ShedWatermark > c.MaxInflight {
		return fmt.Errorf("serve: ShedWatermark must be in [0, MaxInflight], got %d with MaxInflight %d", c.ShedWatermark, c.MaxInflight)
	}
	if len(c.Tenants) == 0 {
		return fmt.Errorf("serve: Tenants must name at least one traffic source")
	}
	for i, t := range c.Tenants {
		name := t.Name
		if name == "" {
			name = fmt.Sprintf("tenant-%d", i)
		}
		if t.Arrival == nil {
			return fmt.Errorf("serve: tenant %s needs an Arrival process", name)
		}
		if err := t.Arrival.Validate(); err != nil {
			return fmt.Errorf("serve: tenant %s: %w", name, err)
		}
		if math.IsNaN(t.Weight) || math.IsInf(t.Weight, 0) || t.Weight < 0 {
			return fmt.Errorf("serve: tenant %s Weight must be >= 0, got %g", name, t.Weight)
		}
		if math.IsNaN(t.Rate) || math.IsInf(t.Rate, 0) || t.Rate < 0 {
			return fmt.Errorf("serve: tenant %s Rate must be >= 0, got %g", name, t.Rate)
		}
		if math.IsNaN(t.Burst) || math.IsInf(t.Burst, 0) || t.Burst < 0 {
			return fmt.Errorf("serve: tenant %s Burst must be >= 0, got %g", name, t.Burst)
		}
	}
	return nil
}

// OverloadReason names which protection layer dropped an offer.
type OverloadReason string

// The drop reasons, in pipeline order.
const (
	// ReasonThrottled: the tenant's token bucket was empty.
	ReasonThrottled OverloadReason = "throttled"
	// ReasonShed: the shed band was active and the tenant was at or over
	// its fair share.
	ReasonShed OverloadReason = "shed"
	// ReasonQueueFull: the hard MaxInflight bound was reached.
	ReasonQueueFull OverloadReason = "queue-full"
	// ReasonDepDropped: a dependency of the task was itself dropped, so the
	// task could never run (counted as shed).
	ReasonDepDropped OverloadReason = "dep-dropped"
)

// Overload is the typed error for one dropped offer: instead of enqueueing
// forever, the frontend tells the producing tenant exactly which layer
// refused the task and under what load.
type Overload struct {
	Tenant   string
	Reason   OverloadReason
	At       sim.Time
	Inflight int
}

// Error implements error.
func (e *Overload) Error() string {
	return fmt.Sprintf("serve: tenant %s %s at t=%.3gs (%d inflight)",
		e.Tenant, e.Reason, float64(e.At), e.Inflight)
}

// dropSampleCap bounds the Overload samples kept for the report.
const dropSampleCap = 4

// pending is one offered task waiting on backpressure (cooperative tenants
// only): either a timed token wait or a FIFO capacity wait.
type pending struct {
	tn   *tenant
	task *wq.Task
	paid bool // token already consumed by an earlier pass
}

// tenant is one traffic source's runtime state.
type tenant struct {
	cfg TenantConfig
	idx int
	rng *sim.RNG
	// shedMark is this tenant's shed threshold: ShedWatermark plus a
	// priority-rank share of the band, so higher-priority tenants shed
	// later.
	shedMark int

	tokens   float64
	lastFill sim.Time

	stampedeFactor float64
	stampedeUntil  sim.Time

	// holding pauses the arrival loop while one offer is backpressured.
	holding bool

	offered, accepted, rejected, shed, throttled int
	backpressured, completed, failed             int
	e2e                                          *metrics.Histogram
}

// refill tops the token bucket up to now.
func (tn *tenant) refill(now sim.Time) {
	if tn.cfg.Rate <= 0 {
		return
	}
	tn.tokens += float64(now-tn.lastFill) * tn.cfg.Rate
	if burst := tn.cfg.Burst; tn.tokens > burst {
		tn.tokens = burst
	}
	tn.lastFill = now
}

// Frontend streams tasks into a wq.Master from per-tenant arrival
// processes under the overload-protection pipeline. Construct with New,
// wire master.OnTaskDone(fe.TaskDone), then Start inside the t=0 event.
type Frontend struct {
	eng *sim.Engine
	m   *wq.Master
	cfg Config

	tenants []*tenant
	byTask  map[*wq.Task]*tenant
	dropped map[int]bool // task IDs refused at admission (dependency cascade)
	waiters []*pending   // FIFO capacity waits

	totalWeight  float64
	inflight     int
	peakInflight int
	pendingHolds int // outstanding backpressured offers (timed + FIFO)

	offered, accepted, rejected, shed, throttled int
	backpressured, completed, failed             int
	e2e                                          *metrics.Histogram
	sampleDrops                                  []string
}

// New validates cfg and builds a frontend over the master. Per-tenant RNG
// streams are forked from the engine's here, so construction order is the
// only thing that fixes the draw sequence — and a run without serving never
// constructs a frontend, leaving its sequence untouched.
func New(eng *sim.Engine, m *wq.Master, cfg *Config) (*Frontend, error) {
	c := *cfg
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.ShedWatermark == 0 {
		c.ShedWatermark = c.MaxInflight * 3 / 4
	}
	f := &Frontend{
		eng: eng, m: m, cfg: c,
		byTask:  map[*wq.Task]*tenant{},
		dropped: map[int]bool{},
		e2e:     metrics.NewHistogram(obs.LatencyBuckets()),
	}
	// Priority ranks: distinct priorities sorted ascending split the
	// [ShedWatermark, MaxInflight) band into per-rank shed thresholds.
	prios := map[int]bool{}
	for _, t := range c.Tenants {
		prios[t.Priority] = true
	}
	ranked := make([]int, 0, len(prios))
	for p := range prios {
		ranked = append(ranked, p)
	}
	sort.Ints(ranked)
	rank := map[int]int{}
	for i, p := range ranked {
		rank[p] = i
	}
	band := c.MaxInflight - c.ShedWatermark
	for i := range c.Tenants {
		tc := c.Tenants[i]
		if tc.Name == "" {
			tc.Name = fmt.Sprintf("tenant-%d", i)
		}
		if tc.Weight == 0 {
			tc.Weight = 1
		}
		if tc.Rate > 0 && tc.Burst == 0 {
			tc.Burst = math.Max(tc.Rate, 1)
		}
		tn := &tenant{
			cfg: tc, idx: i,
			rng:      eng.RNG().Fork(),
			tokens:   tc.Burst,
			shedMark: c.ShedWatermark + band*rank[tc.Priority]/len(ranked),
			e2e:      metrics.NewHistogram(obs.LatencyBuckets()),
		}
		f.tenants = append(f.tenants, tn)
		f.totalWeight += tc.Weight
	}
	return f, nil
}

// SetObs attaches the snapshot bus: each sealed snapshot reads the
// frontend's own admission counters, so serving adds no calls on the
// admission path.
func (f *Frontend) SetObs(bus *obs.Bus) {
	bus.SetServeTruth(func() obs.ServeTruth {
		return obs.ServeTruth{
			Offered: f.offered, Shed: f.shed,
			Rejected: f.rejected, Throttled: f.throttled,
			Backpressured: f.backpressured,
		}
	})
}

// Start begins every tenant's arrival loop. Call inside the t=0 event.
func (f *Frontend) Start() {
	for _, tn := range f.tenants {
		f.scheduleNext(tn)
	}
}

// scheduleNext draws the tenant's next inter-arrival gap (compressed by an
// active stampede) and schedules the arrival, unless it would land past the
// window or the process is exhausted.
func (f *Frontend) scheduleNext(tn *tenant) {
	now := f.eng.Now()
	gap := tn.cfg.Arrival.Next(now, tn.rng)
	if gap < 0 {
		return // trace replay exhausted
	}
	if tn.stampedeFactor > 1 && now < tn.stampedeUntil {
		gap = sim.Time(float64(gap) / tn.stampedeFactor)
	}
	at := now + gap
	if at > f.cfg.Window {
		return
	}
	f.eng.At(at, func() { f.arrive(tn) })
}

// arrive offers the tenant's next task to the admission pipeline. A
// backpressured (cooperative) offer pauses the arrival loop until it
// resolves; any other outcome immediately schedules the next arrival —
// open-loop sources do not wait for completions.
func (f *Frontend) arrive(tn *tenant) {
	t := tn.cfg.Feed()
	if t == nil {
		return // feed exhausted
	}
	tn.offered++
	f.offered++
	if f.resolve(&pending{tn: tn, task: t}) {
		tn.holding = true
		return
	}
	f.scheduleNext(tn)
}

// resolve runs one offer through the pipeline: dependency cascade, token
// bucket, hard bound, shed band, accept. Returns true if the offer was
// backpressured (held) instead of resolved.
func (f *Frontend) resolve(p *pending) bool {
	tn, t := p.tn, p.task
	now := f.eng.Now()
	for _, dep := range t.DependsOn {
		if f.dropped[dep.ID] {
			// A dropped dependency can never complete; admitting the task
			// would strand it in the master forever.
			f.drop(tn, t, ReasonDepDropped)
			return false
		}
	}
	if tn.cfg.Rate > 0 && !p.paid {
		tn.refill(now)
		if tn.tokens+1e-9 < 1 {
			if tn.cfg.Cooperative {
				wait := sim.Time((1 - tn.tokens) / tn.cfg.Rate)
				f.hold(tn)
				f.eng.After(wait, func() { f.releaseTimed(p) })
				return true
			}
			f.drop(tn, t, ReasonThrottled)
			return false
		}
		tn.tokens--
		p.paid = true
	}
	if f.inflight >= f.cfg.MaxInflight {
		return f.holdOrDrop(p, ReasonQueueFull)
	}
	if f.inflight >= tn.shedMark && f.debt(tn) <= 0 {
		return f.holdOrDrop(p, ReasonShed)
	}
	f.accept(tn, t)
	return false
}

// holdOrDrop backpressures a cooperative tenant's offer into the FIFO
// capacity queue, or drops a non-cooperative one with the typed reason.
func (f *Frontend) holdOrDrop(p *pending, r OverloadReason) bool {
	if p.tn.cfg.Cooperative {
		f.hold(p.tn)
		f.waiters = append(f.waiters, p)
		return true
	}
	f.drop(p.tn, p.task, r)
	return false
}

// hold accounts one backpressure signal.
func (f *Frontend) hold(tn *tenant) {
	tn.backpressured++
	f.backpressured++
	f.pendingHolds++
}

// releaseTimed re-resolves a token-wait hold when its token has refilled.
func (f *Frontend) releaseTimed(p *pending) {
	f.pendingHolds--
	if f.resolve(p) {
		return // held again (now in the capacity queue)
	}
	f.resume(p.tn)
}

// resume restarts a tenant's arrival loop after its held offer resolved.
func (f *Frontend) resume(tn *tenant) {
	if !tn.holding {
		return
	}
	tn.holding = false
	f.scheduleNext(tn)
}

// debt is the tenant's fair-share deficit: weight-proportional share of all
// accepted work minus what it actually got. Zero or negative means the
// tenant is at or over its share — sheddable inside the band.
func (f *Frontend) debt(tn *tenant) float64 {
	if f.accepted == 0 {
		return 0
	}
	return float64(f.accepted)*tn.cfg.Weight/f.totalWeight - float64(tn.accepted)
}

// accept admits the task: consumes inflight capacity, stamps the tenant's
// scheduling priority, and submits to the master (SubmittedAt is the
// arrival time, so existing e2e latency accounting measures
// arrival→completion).
func (f *Frontend) accept(tn *tenant, t *wq.Task) {
	tn.accepted++
	f.accepted++
	f.inflight++
	if f.inflight > f.peakInflight {
		f.peakInflight = f.inflight
	}
	if tn.cfg.Priority != 0 {
		t.Priority = tn.cfg.Priority
	}
	f.byTask[t] = tn
	f.m.Submit(t)
}

// drop refuses the offer with the typed reason and tells the tenant.
func (f *Frontend) drop(tn *tenant, t *wq.Task, r OverloadReason) {
	f.dropped[t.ID] = true
	switch r {
	case ReasonThrottled:
		tn.throttled++
		f.throttled++
	case ReasonQueueFull:
		tn.rejected++
		f.rejected++
	default: // ReasonShed, ReasonDepDropped
		tn.shed++
		f.shed++
	}
	ov := &Overload{Tenant: tn.cfg.Name, Reason: r, At: f.eng.Now(), Inflight: f.inflight}
	if len(f.sampleDrops) < dropSampleCap {
		f.sampleDrops = append(f.sampleDrops, ov.Error())
	}
	if tn.cfg.OnOverload != nil {
		tn.cfg.OnOverload(ov)
	}
}

// TaskDone is the master's OnTaskDone callback: it retires the accepted
// task, records its end-to-end latency, and wakes FIFO capacity waiters
// while inflight sits below the shed watermark — accepted work finishing is
// what relieves backpressure.
func (f *Frontend) TaskDone(t *wq.Task) {
	tn := f.byTask[t]
	if tn == nil {
		return
	}
	delete(f.byTask, t)
	f.inflight--
	if t.State == wq.TaskFailed {
		tn.failed++
		f.failed++
	} else {
		tn.completed++
		f.completed++
		el := float64(t.FinishedAt - t.SubmittedAt)
		f.e2e.Observe(el)
		tn.e2e.Observe(el)
	}
	for len(f.waiters) > 0 && f.inflight < f.cfg.ShedWatermark {
		p := f.waiters[0]
		f.waiters = append(f.waiters[:0], f.waiters[1:]...)
		f.pendingHolds--
		if f.resolve(p) {
			continue // re-held on its token; resumes from releaseTimed
		}
		f.resume(p.tn)
	}
}

// TenantCount reports the number of configured tenants (chaos uses it to
// pick stampede victims).
func (f *Frontend) TenantCount() int { return len(f.tenants) }

// Stampede multiplies one tenant's arrival rate by factor (gaps divide by
// it) for the duration — the chaos engine's tenant-stampede fault. A
// non-positive duration stampedes until the window closes.
func (f *Frontend) Stampede(tenantIdx int, factor float64, duration sim.Time) {
	if tenantIdx < 0 || tenantIdx >= len(f.tenants) || factor <= 1 {
		return
	}
	tn := f.tenants[tenantIdx]
	tn.stampedeFactor = factor
	if duration > 0 {
		tn.stampedeUntil = f.eng.Now() + duration
	} else {
		tn.stampedeUntil = f.cfg.Window
	}
}

// Active reports whether the frontend still has work in motion: the
// arrival window is open, accepted tasks are inflight, or backpressured
// offers are pending. Chaos churn and replacement provisioning keep running
// while a serving run is active even if the master is momentarily drained.
func (f *Frontend) Active() bool {
	return f.eng.Now() < f.cfg.Window || f.inflight > 0 || f.pendingHolds > 0
}

// CheckInvariants verifies the overload pipeline reconciled exactly at
// drain: every offer resolved to exactly one of accept/reject/shed/
// throttle, every backpressured offer was eventually resolved, every
// accepted task terminated, and the master saw exactly the accepted set.
func (f *Frontend) CheckInvariants() error {
	if f.offered != f.accepted+f.rejected+f.shed+f.throttled {
		return fmt.Errorf("serve: offered %d != accepted %d + rejected %d + shed %d + throttled %d",
			f.offered, f.accepted, f.rejected, f.shed, f.throttled)
	}
	if f.pendingHolds != 0 || len(f.waiters) != 0 {
		return fmt.Errorf("serve: %d backpressured offers never resolved (%d still queued)",
			f.pendingHolds, len(f.waiters))
	}
	if f.accepted != f.completed+f.failed {
		return fmt.Errorf("serve: accepted %d but %d completed + %d failed — accepted work leaked",
			f.accepted, f.completed, f.failed)
	}
	if f.inflight != 0 {
		return fmt.Errorf("serve: %d tasks still inflight at drain", f.inflight)
	}
	if st := f.m.Stats(); st.Submitted != f.accepted {
		return fmt.Errorf("serve: master saw %d submissions but frontend accepted %d",
			st.Submitted, f.accepted)
	}
	var o, a, rj, sh, th int
	for _, tn := range f.tenants {
		o += tn.offered
		a += tn.accepted
		rj += tn.rejected
		sh += tn.shed
		th += tn.throttled
	}
	if o != f.offered || a != f.accepted || rj != f.rejected || sh != f.shed || th != f.throttled {
		return fmt.Errorf("serve: per-tenant counters do not sum to totals")
	}
	return nil
}
