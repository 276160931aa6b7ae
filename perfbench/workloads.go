package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"time"

	"lfm/internal/alloc"
	"lfm/internal/cluster"
	"lfm/internal/core"
	"lfm/internal/monitor"
	"lfm/internal/obs"
	"lfm/internal/procmon"
	"lfm/internal/scenario"
	"lfm/internal/serve"
	"lfm/internal/sim"
	"lfm/internal/tseries"
	"lfm/internal/workloads"
	"lfm/internal/wq"
)

// workload is one benchmark input family; BENCHMARK.json gives the reason
// for each. setup generates the inputs for a seed and returns the call to
// measure; it is timed as setup_s.
type workload struct {
	name  string
	setup func(seed int64) (call, error)
}

// call is one prepared measured call.
type call interface {
	// trace attaches the benchmark's layer spans. It runs outside the
	// timed window and must leave the outcome unchanged.
	trace()
	// run is the measured call.
	run() error
	// finish checks the outcome and fills the repeat's counts, digest,
	// and layer values. A returned error is a failed correctness check.
	finish(rep *repeat) error
}

var workloadList = []workload{
	{
		name: "batch-scale",
		setup: func(seed int64) (call, error) {
			const tasks, workers = 10000, 500
			w := workloads.Scale(sim.NewRNG(seed), tasks, 8)
			site := cluster.Sites()["ndcrc"]
			site.Name = fmt.Sprintf("synthetic-%d", workers)
			site.Nodes = workers
			return &simCall{w: w, cfg: core.RunConfig{
				Site: &site, Workers: workers,
				WorkerCores: 4, WorkerMemoryMB: 4 * 1024, WorkerDiskMB: 8 * 1024,
				Strategy: &alloc.Guess{Fixed: w.Guess}, Seed: seed, NoBatchLatency: true,
			}}, nil
		},
	},
	{
		name: "hep-auto",
		setup: func(seed int64) (call, error) {
			w := workloads.HEP(sim.NewRNG(seed), 800)
			return &simCall{w: w, cfg: core.RunConfig{
				SiteName: "ndcrc", Workers: 64, Strategy: alloc.NewAuto(), Seed: seed,
			}}, nil
		},
	},
	{
		name: "serve-observed",
		setup: func(seed int64) (call, error) {
			// 20 four-core workers over 1-core tasks of mean 20 s serve
			// 4 tasks/s; the tenants offer twice that for the window.
			const window, capacity = 450.0, 20 * 4 / 20.0
			rate := 2 * capacity
			w := workloads.Scale(sim.NewRNG(seed), int(rate*window)*2+64, 8)
			return &simCall{w: w, cfg: core.RunConfig{
				SiteName: "ndcrc", Workers: 20,
				WorkerCores: 4, WorkerMemoryMB: 4 * 1024, WorkerDiskMB: 8 * 1024,
				Strategy: alloc.NewAuto(), Seed: seed, NoBatchLatency: true,
				Serving: &serve.Config{
					Window: sim.Time(window), MaxInflight: 256, ShedWatermark: 192,
					Tenants: []serve.TenantConfig{
						{Name: "alpha", Arrival: &workloads.Poisson{Rate: rate / 2}},
						{Name: "beta", Arrival: &workloads.Poisson{Rate: rate / 2}},
					},
				},
				Obs:       &obs.Config{},
				Telemetry: tseries.DefaultConfig(),
			}}, nil
		},
	},
	{
		name:  "live-procmon",
		setup: setupLive,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// simCall runs one simulated workload through core.Run.
type simCall struct {
	w     *workloads.Workload
	cfg   core.RunConfig
	spans *spanStrategy
	out   *core.Outcome
}

func (c *simCall) trace() {
	c.spans = &spanStrategy{inner: c.cfg.Strategy}
	c.cfg.Strategy = c.spans
}

func (c *simCall) run() (err error) {
	c.out, err = core.Run(c.w, c.cfg)
	return err
}

func (c *simCall) finish(rep *repeat) error {
	out := c.out
	st := out.Stats
	rep.Tasks = st.Completed
	rep.Ops = len(c.w.Tasks)
	rep.FailedOps = st.Failed
	if out.Serving != nil {
		rep.Ops = out.Serving.Offered
	}
	d, err := scenario.OutcomeDigest(out, c.w.Tasks)
	if err != nil {
		return err
	}
	rep.Digest = d
	rep.Layers = simLayers(out, c.spans)
	if out.Serving != nil {
		return checkServing(out.Serving, st)
	}
	return checkBatch(st, len(c.w.Tasks))
}

// checkBatch verifies a batch run accounted for every task: all were
// submitted, and each one completed or failed.
func checkBatch(st wq.Stats, tasks int) error {
	if st.Submitted != tasks {
		return fmt.Errorf("submitted %d of %d tasks", st.Submitted, tasks)
	}
	if st.Completed+st.Failed != st.Submitted {
		return fmt.Errorf("completed %d + failed %d != submitted %d", st.Completed, st.Failed, st.Submitted)
	}
	return nil
}

// checkServing verifies the serving frontend's drain reconciliation and
// that the master ran exactly the accepted work.
func checkServing(r *serve.Report, st wq.Stats) error {
	if r.Offered == 0 {
		return fmt.Errorf("no offers")
	}
	if got := r.Accepted + r.Rejected + r.Shed + r.Throttled; got != r.Offered {
		return fmt.Errorf("offered %d != accepted %d + rejected %d + shed %d + throttled %d",
			r.Offered, r.Accepted, r.Rejected, r.Shed, r.Throttled)
	}
	if r.Completed+r.Failed != r.Accepted {
		return fmt.Errorf("accepted %d != completed %d + failed %d", r.Accepted, r.Completed, r.Failed)
	}
	if st.Submitted != r.Accepted || st.Completed+st.Failed != st.Submitted {
		return fmt.Errorf("master submitted %d, completed %d, failed %d for %d accepted",
			st.Submitted, st.Completed, st.Failed, r.Accepted)
	}
	return nil
}

// simLayers gathers the per-layer counters a simulated run exposes. Alloc
// span values are present only when spans were attached.
func simLayers(out *core.Outcome, spans *spanStrategy) map[string]float64 {
	st := out.Stats
	l := map[string]float64{"wq.retries": float64(st.Retries)}
	if s := out.Sched; s != nil {
		l["wq.sched_s"] = float64(s.ElapsedNanos) / 1e9
		l["wq.passes"] = float64(s.Passes)
		l["wq.tasks_examined"] = float64(s.TasksExamined)
		l["wq.candidates_examined"] = float64(s.CandidatesExamined)
		l["wq.blocked_wakes"] = float64(s.BlockedWakes)
	}
	if n := st.CacheHits + st.CacheMisses; n > 0 {
		l["wq.cache_hit_ratio"] = float64(st.CacheHits) / float64(n)
	}
	if r := out.Serving; r != nil {
		l["serve.offered"] = float64(r.Offered)
		l["serve.accepted"] = float64(r.Accepted)
		l["serve.shed"] = float64(r.Shed)
		if r.Offered > 0 {
			l["serve.shed_frac"] = float64(r.Shed) / float64(r.Offered)
		}
	}
	if spans != nil {
		l["alloc.next_calls"] = float64(spans.next.calls)
		l["alloc.next_s"] = spans.next.seconds()
		l["alloc.retry_calls"] = float64(spans.retry.calls)
		l["alloc.observe_calls"] = float64(spans.observe.calls)
		l["alloc.observe_s"] = spans.observe.seconds()
		if st.Submitted > 0 {
			l["alloc.next_per_task"] = float64(spans.next.calls) / float64(st.Submitted)
		}
	}
	return l
}

// span accumulates the calls into one layer entry point and their time.
type span struct {
	calls int64
	nanos int64
}

func (s *span) end(start time.Time) {
	s.calls++
	s.nanos += int64(time.Since(start))
}

func (s *span) seconds() float64 { return float64(s.nanos) / 1e9 }

// spanStrategy is an alloc.Strategy decorator that counts and times every
// call into the wrapped strategy, seen from outside the alloc layer.
type spanStrategy struct {
	inner                alloc.Strategy
	next, retry, observe span
}

func (s *spanStrategy) Name() string { return s.inner.Name() }

func (s *spanStrategy) Next(category string) alloc.Decision {
	defer s.next.end(time.Now())
	return s.inner.Next(category)
}

func (s *spanStrategy) Retry(category string, attempt int) alloc.Decision {
	defer s.retry.end(time.Now())
	return s.inner.Retry(category, attempt)
}

func (s *spanStrategy) Observe(category string, rep monitor.Report) {
	defer s.observe.end(time.Now())
	s.inner.Observe(category, rep)
}

// Live tree shape: one root plus liveChildren helpers, each holding a
// seeded allocation for liveHold while procmon polls every livePoll.
const (
	liveChildren = 16
	livePoll     = 5 * time.Millisecond
	liveHold     = time.Second
)

// livePlan is the seeded shape of one live tree: the MiB each process of
// the tree allocates and touches, root first.
func livePlan(seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	mib := make([]int, liveChildren+1)
	for i := range mib {
		mib[i] = 2 + rng.Intn(7)
	}
	return mib
}

// liveCall monitors one helper tree with procmon.
type liveCall struct {
	exe     string
	mib     []int // livePlan
	baseRSS int64 // RSS of a helper that allocates nothing
	lags    []time.Duration
	rep     *procmon.Report
	wall    time.Duration
}

func setupLive(seed int64) (call, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	base, err := probeHelperRSS(exe)
	if err != nil {
		return nil, err
	}
	return &liveCall{exe: exe, mib: livePlan(seed), baseRSS: base}, nil
}

// trace adds nothing: procmon has no entry point besides the measured call.
func (c *liveCall) trace() {}

func (c *liveCall) run() (err error) {
	m := &procmon.Monitor{PollInterval: livePoll, Callback: func(s procmon.Sample) {
		c.lags = append(c.lags, time.Since(s.At))
	}}
	c.lags = make([]time.Duration, 0, int(2*liveHold/livePoll))
	// A tree that outlives its hold by far is killed, so a stuck helper
	// fails the repeat instead of hanging the benchmark.
	ctx, cancel := context.WithTimeout(context.Background(), liveHold+30*time.Second)
	defer cancel()
	start := time.Now()
	c.rep, err = m.Run(ctx, helperTreeCmd(c.exe, c.mib, liveHold))
	c.wall = time.Since(start)
	return err
}

func (c *liveCall) finish(rep *repeat) error {
	r := c.rep
	rep.Tasks = 1
	rep.Ops = r.Polls
	h := sha256.New()
	fmt.Fprintf(h, "plan %v exit %d procs %d\n", c.mib, r.ExitCode, r.MaxProcs)
	rep.Digest = "sha256:" + hex.EncodeToString(h.Sum(nil))
	lagsMS := make([]float64, len(c.lags))
	for i, d := range c.lags {
		lagsMS[i] = float64(d) / 1e6
	}
	rep.Layers = map[string]float64{
		"procmon.polls":           float64(r.Polls),
		"procmon.missed_polls":    float64(c.wall)/float64(livePoll) - float64(r.Polls),
		"procmon.tree_procs":      float64(r.MaxProcs),
		"procmon.peak_rss_mb":     float64(r.PeakRSSBytes) / (1 << 20),
		"procmon.poll_lag_p50_ms": quantile(lagsMS, 0.5),
		"procmon.poll_lag_p99_ms": quantile(lagsMS, 0.99),
	}
	return checkLive(r, len(c.mib), c.expectedRSS())
}

// expectedRSS is the tree's resident set once every process has touched
// its allocation: the allocations plus one empty helper's RSS per process.
func (c *liveCall) expectedRSS() int64 {
	var sum int64
	for _, m := range c.mib {
		sum += int64(m)<<20 + c.baseRSS
	}
	return sum
}

// checkLive verifies a monitored tree exited cleanly, was seen whole, and
// that its measured peak RSS matches the helpers' known allocations.
func checkLive(r *procmon.Report, procs int, expectRSS int64) error {
	if r.ExitCode != 0 || r.Killed {
		return fmt.Errorf("tree exited %d (killed %v)", r.ExitCode, r.Killed)
	}
	if r.MaxProcs != procs {
		return fmt.Errorf("saw %d processes, want %d", r.MaxProcs, procs)
	}
	lo, hi := expectRSS*85/100, expectRSS*125/100
	if r.PeakRSSBytes < lo || r.PeakRSSBytes > hi {
		return fmt.Errorf("peak RSS %d bytes outside [%d, %d] expected from the helpers' allocations",
			r.PeakRSSBytes, lo, hi)
	}
	return nil
}
