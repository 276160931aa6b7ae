package chaos_test

import (
	"reflect"
	"strings"
	"testing"

	"lfm/internal/chaos"
	"lfm/internal/cluster"
	"lfm/internal/sim"
	"lfm/internal/workloads"
	"lfm/internal/wq"
)

func TestScheduleValidate(t *testing.T) {
	ok := chaos.Fault{Kind: chaos.WorkerCrash, At: 1}
	cases := []struct {
		name  string
		sched chaos.Schedule
		field string // what the error must name
	}{
		{"unknown kind", chaos.Schedule{Faults: []chaos.Fault{ok, {Kind: "meteor"}}}, `fault 1 has unknown Kind "meteor"`},
		{"empty kind", chaos.Schedule{Faults: []chaos.Fault{{At: 1}}}, `fault 0 has unknown Kind ""`},
		{"negative at", chaos.Schedule{Faults: []chaos.Fault{{Kind: chaos.FSSlow, At: -1}}}, "fault 0 (fs-slow) has negative At"},
		{"negative duration", chaos.Schedule{Faults: []chaos.Fault{ok, {Kind: chaos.FSOutage, Duration: -2}}}, "fault 1 (fs-outage) has negative Duration"},
		{"prob below zero", chaos.Schedule{Faults: []chaos.Fault{{Kind: chaos.StagingFailure, Prob: -0.1}}}, "fault 0 (staging-failure) has Prob -0.1"},
		{"prob above one", chaos.Schedule{Faults: []chaos.Fault{{Kind: chaos.StagingFailure, Prob: 1.5}}}, "has Prob 1.5 outside [0,1]"},
		{"negative churn", chaos.Schedule{ChurnMTBF: -3}, "negative ChurnMTBF"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.sched.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", c.sched)
			}
			if !strings.Contains(err.Error(), c.field) {
				t.Fatalf("error %q does not name %q", err, c.field)
			}
		})
	}
	good := chaos.Schedule{ChurnMTBF: 60, Faults: []chaos.Fault{
		ok, {Kind: chaos.StagingFailure, Duration: 10, Prob: 1}, {Kind: chaos.TenantStampede, Worker: -1},
	}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid schedule refused: %v", err)
	}
}

func TestProfiles(t *testing.T) {
	names := chaos.Profiles()
	if len(names) == 0 {
		t.Fatal("no canned profiles")
	}
	for _, name := range names {
		for _, horizon := range []sim.Time{0, 90 * sim.Second} {
			s, err := chaos.Profile(name, horizon)
			if err != nil {
				t.Fatalf("Profile(%q, %v): %v", name, horizon, err)
			}
			if len(s.Faults) == 0 && s.ChurnMTBF == 0 {
				t.Errorf("profile %q at horizon %v injects nothing", name, horizon)
			}
			if err := s.Validate(); err != nil {
				t.Errorf("profile %q at horizon %v does not validate: %v", name, horizon, err)
			}
		}
	}
	if _, err := chaos.Profile("no-such-profile", 0); err == nil || !strings.Contains(err.Error(), "no-such-profile") {
		t.Fatalf("unknown profile error = %v, want one naming it", err)
	}
}

// runStorm injects the storm profile into a small HEP run and returns what
// the engine reports.
func runStorm(t *testing.T, seed int64) *chaos.Report {
	t.Helper()
	eng := sim.NewEngine(seed)
	// Workers join at once: a fault striking before any worker is live
	// finds no victim and is not injected.
	site := cluster.Sites()["ndcrc"]
	site.BatchLatency, site.Jitter = 0, 0
	cl := cluster.New(eng, site)
	m := wq.NewMaster(eng, wq.DefaultConfig())
	join := func(n *cluster.Node) { m.AddWorker(n) }
	if err := cl.Provision(8, join); err != nil {
		t.Fatal(err)
	}
	sched, err := chaos.Profile("storm", 2*sim.Minute)
	if err != nil {
		t.Fatal(err)
	}
	e := chaos.New(eng, *sched, sim.NewRNG(seed))
	e.Bind(m, cl)
	e.SetReplacer(func() { _ = cl.Provision(1, join) })
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	w := workloads.HEP(sim.NewRNG(seed), 30)
	eng.At(0, func() {
		for _, task := range w.Tasks {
			m.Submit(task)
		}
	})
	eng.Run()
	if err := e.Finish(); err != nil {
		t.Fatalf("storm run breaks invariants: %v", err)
	}
	return e.Report()
}

func TestEngineDeterministic(t *testing.T) {
	a, b := runStorm(t, 5), runStorm(t, 5)
	storm, _ := chaos.Profile("storm", 0)
	for _, f := range storm.Faults {
		if a.Injected[f.Kind] == 0 {
			t.Errorf("storm never injected %s: %s", f.Kind, a.Summary())
		}
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same schedule and seed injected differently:\n%s\n%s", a.Summary(), b.Summary())
	}
}
