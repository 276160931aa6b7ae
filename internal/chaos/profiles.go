package chaos

import (
	"fmt"
	"sort"

	"lfm/internal/sim"
)

// profiles are canned schedules sized for the benchmark workloads (HEP-scale
// runs of a few simulated minutes). Times are fractions of the horizon so a
// profile stretches with the run it torments.
var profiles = map[string]func(h sim.Time) *Schedule{
	// churn models pilot jobs that keep hitting batch limits and get
	// resubmitted.
	"churn": func(h sim.Time) *Schedule {
		return &Schedule{ChurnMTBF: h / 4, ChurnReplace: true}
	},
	// stragglers slows three random workers down permanently; speculation is
	// the intended mitigation.
	"stragglers": func(h sim.Time) *Schedule {
		return &Schedule{Faults: []Fault{
			{Kind: WorkerSlow, At: h / 20, Factor: 6, Worker: -1},
			{Kind: WorkerSlow, At: h / 10, Factor: 6, Worker: -1},
			{Kind: WorkerSlow, At: h / 5, Factor: 8, Worker: -1},
		}}
	},
	// flaky-staging makes a third of input transfers fail during two long
	// windows; backoff retries and quarantine are the intended mitigations.
	"flaky-staging": func(h sim.Time) *Schedule {
		return &Schedule{Faults: []Fault{
			{Kind: StagingFailure, At: h / 20, Duration: h / 4, Prob: 0.3},
			{Kind: StagingFailure, At: h / 2, Duration: h / 4, Prob: 0.3},
		}}
	},
	// shard-blackout takes a whole slice of the pool dark at one instant —
	// a rack or shard losing power — while the batch system refuses
	// replacement pilots for a long window; the master must detect the
	// correlated loss, recover the stranded work onto the surviving
	// workers, and re-grow the pool once provisioning returns.
	"shard-blackout": func(h sim.Time) *Schedule {
		s := &Schedule{Faults: []Fault{
			{Kind: ProvisionReject, At: h / 6, Duration: h / 3},
		}}
		for i := 0; i < 6; i++ {
			s.Faults = append(s.Faults, Fault{
				Kind: WorkerCrash, At: h / 5, Worker: -1, Replace: true,
			})
		}
		return s
	},
	// blackout takes the shared filesystem down mid-run and then has the
	// batch system refuse provisioning for a while.
	"blackout": func(h sim.Time) *Schedule {
		return &Schedule{Faults: []Fault{
			{Kind: FSSlow, At: h / 8, Duration: h / 8, Delay: 100 * sim.Millisecond},
			{Kind: FSOutage, At: h / 3, Duration: h / 10},
			{Kind: ProvisionReject, At: h / 3, Duration: h / 3},
		}}
	},
	// tenant-stampede hammers random serving tenants with two arrival-rate
	// storms; token buckets, fair-share shedding, and backpressure are the
	// intended mitigations. No-op on batch (non-serving) runs.
	"tenant-stampede": func(h sim.Time) *Schedule {
		return &Schedule{Faults: []Fault{
			{Kind: TenantStampede, At: h / 8, Duration: h / 4, Factor: 8, Worker: -1},
			{Kind: TenantStampede, At: h / 2, Duration: h / 3, Factor: 12, Worker: -1},
		}}
	},
	// overload-storm combines sustained overload with capacity loss: tenant
	// stampedes while workers churn, crash, slow down, and staging flakes —
	// the serving frontend must shed exactly (offered == accepted + dropped)
	// while accepted work still terminates.
	"overload-storm": func(h sim.Time) *Schedule {
		return &Schedule{
			ChurnMTBF:    h / 2,
			ChurnReplace: true,
			Faults: []Fault{
				{Kind: TenantStampede, At: h / 8, Duration: h / 4, Factor: 6, Worker: -1},
				{Kind: WorkerCrash, At: h / 6, Worker: -1, Replace: true},
				{Kind: WorkerSlow, At: h / 4, Duration: h / 4, Factor: 4, Worker: -1},
				{Kind: StagingFailure, At: h / 3, Duration: h / 4, Prob: 0.2},
				{Kind: TenantStampede, At: h / 2, Duration: h / 4, Factor: 10, Worker: -1},
			},
		}
	},
	// storm throws everything at once: continuous churn, flaky staging, a
	// filesystem brownout, deferred kills, and two targeted crashes.
	"storm": func(h sim.Time) *Schedule {
		return &Schedule{
			ChurnMTBF:    h / 2,
			ChurnReplace: true,
			Faults: []Fault{
				{Kind: StagingFailure, At: 0, Duration: h / 2, Prob: 0.2},
				{Kind: FSSlow, At: h / 6, Duration: h / 6, Delay: 50 * sim.Millisecond},
				{Kind: FSOutage, At: h / 2, Duration: h / 20},
				{Kind: ZombieKill, At: 0, Duration: h / 2, Delay: 20 * sim.Second},
				{Kind: WorkerCrash, At: h / 10, Worker: -1, Replace: true},
				{Kind: WorkerCrash, At: h / 4, Worker: -1, Replace: true},
				{Kind: WorkerSlow, At: h / 8, Duration: h / 4, Factor: 5, Worker: -1},
			},
		}
	},
}

// Profiles lists the canned schedule names, sorted.
func Profiles() []string {
	names := make([]string, 0, len(profiles))
	for n := range profiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Profile builds the named canned schedule scaled to a run expected to last
// about horizon.
func Profile(name string, horizon sim.Time) (*Schedule, error) {
	mk, ok := profiles[name]
	if !ok {
		return nil, fmt.Errorf("chaos: unknown profile %q (have %v)", name, Profiles())
	}
	if horizon <= 0 {
		horizon = 10 * sim.Minute
	}
	return mk(horizon), nil
}
