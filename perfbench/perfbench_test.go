package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"lfm/internal/alloc"
	"lfm/internal/cluster"
	"lfm/internal/core"
	"lfm/internal/procmon"
	"lfm/internal/serve"
	"lfm/internal/sim"
	"lfm/internal/workloads"
)

// TestMain lets the test binary serve as the live workload's helper.
func TestMain(m *testing.M) {
	if code, ok := helperMain(); ok {
		os.Exit(code)
	}
	os.Exit(m.Run())
}

func TestLayerOfBucketsKnownSymbols(t *testing.T) {
	fr := func(fn, file string) frame { return frame{Func: fn, File: file} }
	const wq, sim = "/src/internal/wq/", "/src/internal/sim/"
	cases := []struct {
		want  string
		stack []frame
	}{
		{"wq.index", []frame{fr("lfm/internal/wq.tinsert", wq+"treap.go")}},
		{"wq.index", []frame{fr("lfm/internal/wq.(*schedState).capacityChanged", wq+"sched.go")}},
		{"wq.index", []frame{fr("lfm/internal/wq.(*schedState).capacityChanged.func1", wq+"sched.go")}},
		{"wq.master", []frame{fr("lfm/internal/wq.(*Master).schedulePassIndexed", wq+"sched.go")}},
		{"alloc", []frame{fr("lfm/internal/alloc.(*Auto).chooseDim", "/src/internal/alloc/alloc.go")}},
		// Helpers count toward their caller: sim statistics called by alloc,
		// the runtime allocator and histograms called by obs, arrivals called
		// by serve.
		{"alloc", []frame{
			fr("lfm/internal/sim.(*Stats).Add", sim+"stats.go"),
			fr("lfm/internal/alloc.(*Auto).chooseDim", "/src/internal/alloc/alloc.go"),
			fr("lfm/internal/sim.(*Engine).Run", sim+"engine.go"),
		}},
		{"obs", []frame{fr("runtime.mallocgc", ""), fr("lfm/internal/obs.(*Bus).advance", "")}},
		{"obs", []frame{fr("lfm/internal/metrics.(*Histogram).Observe", ""), fr("lfm/internal/obs.(*Bus).TaskPlaced", "")}},
		{"serve", []frame{
			fr("lfm/internal/workloads.(*Poisson).Next", ""),
			fr("lfm/internal/serve.(*Frontend).arrive", ""),
		}},
		{"sim.fairshare", []frame{fr("lfm/internal/sim.(*FairShare).advance", sim+"fairshare.go")}},
		{"sim.engine", []frame{fr("lfm/internal/sim.(*Engine).Run", sim+"engine.go")}},
		{"go.gc", []frame{fr("runtime.scanobject", ""), fr("runtime.gcDrain", ""), fr("runtime.gcBgMarkWorker", "")}},
		{"go.gc", []frame{
			fr("runtime.scanobject", ""), fr("runtime.gcAssistAlloc", ""),
			fr("runtime.mallocgc", ""), fr("lfm/internal/wq.(*Master).Submit", wq+"wq.go"),
		}},
		{"procmon", []frame{fr("os.ReadFile", ""), fr("lfm/internal/procmon.sampleTree", "")}},
		{"bench", []frame{fr("time.Now", ""), fr("main.(*spanStrategy).Next", "")}},
		{"go.runtime", []frame{fr("runtime.futex", ""), fr("runtime.mPark", "")}},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%s) = %s, want %s", c.stack[0].Func, got, c.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

func TestParseProfileReadsOwnCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for _, f := range s.Stack {
			if strings.HasSuffix(f.Func, ".spin") && strings.HasSuffix(f.File, "perfbench_test.go") {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no sample in spin among %d samples", len(samples))
	}
	if b := bucketSamples(samples); b["bench"] == 0 {
		t.Fatalf("spin not bucketed as bench: %v", b)
	}
	// Truncated input is an error, never a panic.
	raw := buf.Bytes()
	for _, n := range []int{1, 7, len(raw) / 2} {
		if _, err := parseProfile(raw[:n]); err == nil && n < len(raw) {
			t.Errorf("truncated profile (%d bytes) decoded without error", n)
		}
	}
}

// smallRun runs a small simulated workload and returns it with its outcome.
func smallRun(t *testing.T, cfg core.RunConfig, w *workloads.Workload) (*simCall, *repeat) {
	t.Helper()
	c := &simCall{w: w, cfg: cfg}
	if err := c.run(); err != nil {
		t.Fatal(err)
	}
	rep := &repeat{}
	if err := c.finish(rep); err != nil {
		t.Fatalf("clean run failed its check: %v", err)
	}
	return c, rep
}

func TestBatchCheckRejectsDoctoredOutcome(t *testing.T) {
	w := workloads.Scale(sim.NewRNG(3), 200, 4)
	site := cluster.Sites()["ndcrc"]
	c, _ := smallRun(t, core.RunConfig{
		Site: &site, Workers: 8, Strategy: &alloc.Guess{Fixed: w.Guess}, Seed: 3, NoBatchLatency: true,
	}, w)
	st := c.out.Stats
	st.Completed--
	if checkBatch(st, len(w.Tasks)) == nil {
		t.Error("lost completion accepted")
	}
	st = c.out.Stats
	st.Submitted--
	st.Completed--
	if checkBatch(st, len(w.Tasks)) == nil {
		t.Error("unsubmitted task accepted")
	}
}

func TestServingCheckRejectsDoctoredOutcome(t *testing.T) {
	w := workloads.Scale(sim.NewRNG(4), 400, 4)
	c, _ := smallRun(t, core.RunConfig{
		SiteName: "ndcrc", Workers: 2, WorkerCores: 4, Seed: 4, NoBatchLatency: true,
		Serving: &serve.Config{Window: 60, MaxInflight: 16, ShedWatermark: 12, Tenants: []serve.TenantConfig{
			{Name: "a", Arrival: &workloads.Poisson{Rate: 2}},
		}},
	}, w)
	if c.out.Serving.Shed == 0 {
		t.Fatal("test load does not shed; it should exercise the shed term")
	}
	doctor := []func(r *serve.Report){
		func(r *serve.Report) { r.Shed++ },
		func(r *serve.Report) { r.Offered-- },
		func(r *serve.Report) { r.Completed-- },
		func(r *serve.Report) { r.Accepted++; r.Completed++ },
	}
	for i, d := range doctor {
		r := *c.out.Serving
		d(&r)
		if checkServing(&r, c.out.Stats) == nil {
			t.Errorf("doctored report %d accepted", i)
		}
	}
}

func TestLiveCheckRejectsDoctoredReport(t *testing.T) {
	good := procmon.Report{MaxProcs: 17, PeakRSSBytes: 100 << 20}
	if err := checkLive(&good, 17, 100<<20); err != nil {
		t.Fatal(err)
	}
	doctor := []func(r *procmon.Report){
		func(r *procmon.Report) { r.ExitCode = 1 },
		func(r *procmon.Report) { r.Killed = true },
		func(r *procmon.Report) { r.MaxProcs = 16 },
		func(r *procmon.Report) { r.PeakRSSBytes = 50 << 20 },
		func(r *procmon.Report) { r.PeakRSSBytes = 200 << 20 },
	}
	for i, d := range doctor {
		r := good
		d(&r)
		if checkLive(&r, 17, 100<<20) == nil {
			t.Errorf("doctored report %d accepted", i)
		}
	}
}

func TestDigestMismatchFailsEveryOperationOfTheRepeat(t *testing.T) {
	reps := []*repeat{
		{Digest: "sha256:a", Ops: 10, Tasks: 10, RunS: 1},
		{Digest: "sha256:b", Ops: 10, Tasks: 10, RunS: 1},
		{Digest: "sha256:a", Ops: 10, Tasks: 10, RunS: 1, CheckErr: "lost task", FailedOps: 10},
	}
	res, digests := aggregate(reps, false)
	if res.Correct || res.Attempted != 30 || res.Failed != 20 || digests[0] != "sha256:a" {
		t.Fatalf("got correct=%v attempted=%d failed=%d digests=%v", res.Correct, res.Attempted, res.Failed, digests)
	}
	// Instances have digests of their own.
	reps = []*repeat{
		{Seed: 8, Digest: "sha256:a", Ops: 10, Tasks: 10, RunS: 1},
		{Seed: 9, Digest: "sha256:b", Ops: 10, Tasks: 10, RunS: 1},
		{Seed: 8, Digest: "sha256:a", Ops: 10, Tasks: 10, RunS: 1},
	}
	if res, digests = aggregate(reps, false); !res.Correct || res.Failed != 0 || len(digests) != 2 {
		t.Fatalf("got correct=%v failed=%d digests=%v", res.Correct, res.Failed, digests)
	}
}

func TestReferenceKernelIsFixedWork(t *testing.T) {
	for i := 0; i < 2; i++ {
		if d, sum := refKernel(); sum != refChecksum || d <= 0 {
			t.Fatalf("kernel run %d: checksum %d in %v, want %d", i, sum, d, refChecksum)
		}
	}
}

func TestPeakRSSIsThisProcesssOwn(t *testing.T) {
	mem := touch(32)
	peak, err := selfPeakRSSMB()
	if err != nil || peak < 32 {
		t.Fatalf("peak RSS %v MiB after touching 32 MiB: %v", peak, err)
	}
	_ = mem[0]
}

func TestRunRefAndSetupAreRelativeToReferenceTime(t *testing.T) {
	reps := []*repeat{
		{Digest: "sha256:a", Ops: 1, Tasks: 1, RunS: 9, CPUS: 2, RefS: 0.5},
		{Digest: "sha256:a", Ops: 1, Tasks: 1, RunS: 9, CPUS: 3, RefS: 0.5},
		{Digest: "sha256:a", Ops: 1, Tasks: 1, RunS: 9, CPUS: 30, RefS: 5},
	}
	reps[0].SetupS = []float64{0.1}
	reps[1].SetupS = []float64{0.2}
	reps[2].SetupS = []float64{2.5}
	res, _ := aggregate(reps, false)
	if got := res.Metrics["run_ref"].Value; got != 6 {
		t.Fatalf("run_ref %v, want the median ratio 6", got)
	}
	if got, want := res.Metrics["setup_s"].Value, 0.4*refNominalS; math.Abs(got-want) > 1e-12 {
		t.Fatalf("setup_s %v, want the median scaled set-up %v", got, want)
	}
}

func TestSpansLeaveOutcomeDigestUnchanged(t *testing.T) {
	digest := func(traced bool) (string, *repeat) {
		w := workloads.HEP(sim.NewRNG(5), 60)
		c := &simCall{w: w, cfg: core.RunConfig{SiteName: "ndcrc", Workers: 4, Strategy: alloc.NewAuto(), Seed: 5}}
		if traced {
			c.trace()
		}
		if err := c.run(); err != nil {
			t.Fatal(err)
		}
		rep := &repeat{}
		if err := c.finish(rep); err != nil {
			t.Fatal(err)
		}
		return rep.Digest, rep
	}
	plain, _ := digest(false)
	traced, rep := digest(true)
	if plain != traced {
		t.Fatalf("traced digest %s != untraced %s", traced, plain)
	}
	if rep.Layers["alloc.next_calls"] == 0 || rep.Layers["alloc.observe_calls"] == 0 {
		t.Fatalf("spans counted nothing: %v", rep.Layers)
	}
}

func TestLiveHelperTreeHasExpectedSize(t *testing.T) {
	if testing.Short() {
		t.Skip("holds a live process tree for several seconds")
	}
	c, err := setupLive(7)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.run(); err != nil {
		t.Fatal(err)
	}
	rep := &repeat{}
	if err := c.finish(rep); err != nil {
		t.Fatal(err)
	}
	if got := rep.Layers["procmon.tree_procs"]; got != liveChildren+1 {
		t.Fatalf("tree of %v processes, want %d", got, liveChildren+1)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's workloads and
// metrics in step with what the benchmark prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(spec.Workloads), len(workloadList))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadList[i].name {
			t.Errorf("workload %d: json %q, code %q", i, w.Name, workloadList[i].name)
		}
	}
	check := func(kind string, json []struct{ Name, Unit string }, code []metric) {
		if len(json) != len(code) {
			t.Fatalf("%s: json has %d metrics, code %d", kind, len(json), len(code))
		}
		for i, m := range json {
			if m.Name != code[i].name || m.Unit != code[i].unit {
				t.Errorf("%s %d: json %s %s, code %s %s", kind, i, m.Name, m.Unit, code[i].name, code[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
