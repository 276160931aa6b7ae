// Command perfbench is the repository's benchmark. It generates one of four
// seeded workloads, drives it through the program's entry points (core.Run
// for the simulated stack, procmon.Monitor for the live monitor), checks
// every outcome, and prints each metric by name with its unit.
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Every repeat runs in a fresh child process, so its peak RSS belongs to
// that one measured call. With --trace 0 the repeats are untraced and the
// end-to-end metrics are printed; with --trace 1 untraced and traced
// repeats alternate and the per-layer metrics are printed. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
// See README.md for each metric's definition.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric names one reported metric and its unit.
type metric struct {
	name, unit string
}

// endToEnd are printed with --trace 0, from untraced repeats.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"run_ref", "ref"},
	{"allocs_per_task", "count"},
	{"alloc_bytes_per_task", "bytes"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are printed with --trace 1, from traced repeats. A layer a
// workload does not load reads 0.
var perLayer = []metric{
	{"alloc.next_calls", "count"}, {"alloc.next_per_task", "count"},
	{"alloc.next_s", "s"}, {"alloc.observe_calls", "count"},
	{"alloc.observe_s", "s"}, {"alloc.retry_calls", "count"},
	{"alloc.share", "ratio"},
	{"wq.sched_s", "s"}, {"wq.passes", "count"}, {"wq.tasks_examined", "count"},
	{"wq.candidates_examined", "count"}, {"wq.blocked_wakes", "count"},
	{"wq.index_share", "ratio"}, {"wq.master_share", "ratio"},
	{"wq.cache_hit_ratio", "ratio"}, {"wq.retries", "count"},
	{"sim.engine_share", "ratio"}, {"sim.fairshare_share", "ratio"},
	{"monitor.share", "ratio"}, {"sharedfs.share", "ratio"}, {"cluster.share", "ratio"},
	{"serve.share", "ratio"}, {"serve.offered", "count"}, {"serve.accepted", "count"},
	{"serve.shed", "count"}, {"serve.shed_frac", "ratio"},
	{"obs.share", "ratio"}, {"tseries.share", "ratio"},
	{"go.gc_cycles", "count"}, {"go.gc_pause_s", "s"}, {"go.gc_share", "ratio"},
	{"procmon.polls", "count"}, {"procmon.missed_polls", "count"},
	{"procmon.tree_procs", "count"}, {"procmon.poll_cpu_us", "us"},
	{"procmon.poll_lag_p50_ms", "ms"}, {"procmon.poll_lag_p99_ms", "ms"},
	{"procmon.peak_rss_mb", "MiB"},
	{"bench.trace_overhead_frac", "ratio"}, {"bench.profile_samples", "count"},
	{"bench.failed_frac", "ratio"}, {"bench.run_s", "s"}, {"bench.ref_s", "s"},
	{"bench.cpu_share", "ratio"},
}

// shareLayers are the profile buckets reported as <bucket>_share or
// <bucket>.share metrics.
var shareLayers = []string{
	"alloc", "wq.index", "wq.master", "sim.engine", "sim.fairshare", "monitor",
	"sharedfs", "cluster", "serve", "obs", "tseries", "go.gc",
}

func shareMetric(bucket string) string {
	if strings.Contains(bucket, ".") {
		return bucket + "_share"
	}
	return bucket + ".share"
}

// setupRounds is how many times a repeat sets its workload up; setup_s is
// the median, and the last round's inputs are measured.
const setupRounds = 5

// profileHz is the CPU profile sampling rate of traced repeats.
const profileHz = 1000

// instances is how many inputs a run cycles through. Inputs made from two
// seeds can differ in work by several percent, so a run that measured one
// input would carry that difference whole into its median; a run over
// eight carries a fraction of it. Repeats 2k and 2k+1 measure instance
// k % instances, so in a traced run each traced repeat has an untraced
// twin on the same input.
const instances = 8

// instanceSeed is the seed that makes instance j of a run's inputs.
func instanceSeed(seed int64, j int) int64 { return seed*instances + int64(j) }

// repeat is one measured call, made in its own process.
type repeat struct {
	Seed       int64              `json:"seed"` // the instance's, see instanceSeed
	Traced     bool               `json:"traced"`
	SetupS     []float64          `json:"setup_s"`
	RunS       float64            `json:"run_s"`
	CPUS       float64            `json:"cpu_s"`
	RefS       float64            `json:"ref_s"` // refRun, mean of before and after the repeat
	Tasks      int                `json:"tasks"`
	Ops        int                `json:"ops"`
	FailedOps  int                `json:"failed_ops"`
	Mallocs    uint64             `json:"mallocs"`
	AllocBytes uint64             `json:"alloc_bytes"`
	Digest     string             `json:"digest"`
	CheckErr   string             `json:"check_err,omitempty"`
	Layers     map[string]float64 `json:"layers,omitempty"`
	Samples    map[string]int64   `json:"samples,omitempty"`
	// PeakRSSMB is the repeat process's own getrusage max RSS; the live
	// workload's helpers are other processes and do not count.
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// fail marks the repeat as failing a check: all of its operations count
// as failed.
func (r *repeat) fail(err error) {
	if r.CheckErr == "" {
		r.CheckErr = err.Error()
	}
	if r.Ops < 1 {
		r.Ops = 1
	}
	r.FailedOps = r.Ops
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]*value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if code, ok := helperMain(); ok {
		os.Exit(code)
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured time; repeats start until it is spent")
	trace := fs.Int("trace", 0, "0: untraced repeats, end-to-end metrics; 1: traced repeats, per-layer metrics")
	child := fs.Bool("child", false, "run one repeat in this process and print it as JSON")
	traced := fs.Bool("traced", false, "with -child: attach layer spans and a CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -trace 0|1 and -seconds > 0\n", workloadNames())
		return 2
	}
	if *child {
		rep := runRepeat(wl, *seed, *traced)
		if err := json.NewEncoder(stdout).Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	var reps []*repeat
	start := time.Now()
	// The reference kernel runs here, in the waiting parent, between
	// repeats: each repeat's reference time is the mean of the runs just
	// before and just after it, and its child process holds only the
	// workload.
	refBefore, refErr := refRun()
	for i := 0; ; i++ {
		tr := *trace == 1 && i%2 == 1
		r, err := spawnRepeat(exe, wl.name, instanceSeed(*seed, i/2%instances), tr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		refAfter, err := refRun()
		if err := errors.Join(refErr, err); err != nil {
			r.fail(err)
		}
		r.RefS = (refBefore + refAfter) / 2
		refBefore, refErr = refAfter, err
		reps = append(reps, r)
		spent := time.Since(start).Seconds() >= *seconds
		if *trace == 1 && spent && tr || *trace == 0 && spent && len(reps) >= 3 {
			break
		}
	}

	res, digests := aggregate(reps, *trace == 1)
	prov := provenance(*seed)
	prov["workload"] = wl.name
	prov["trace"] = strconv.Itoa(*trace)
	printSummary(os.Stderr, reps, res)
	head, err := json.Marshal(map[string]any{"provenance": prov, "digests": digests, "repeats": len(reps)})
	if err == nil {
		var line []byte
		line, err = json.Marshal(res)
		if err == nil {
			_, err = fmt.Fprintf(stdout, "%s\n%s\n", head, line)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloadList {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// spawnRepeat runs one repeat in a child process and reads its result. A
// child that dies counts as a failed repeat.
func spawnRepeat(exe, name string, seed int64, traced bool) (*repeat, error) {
	cmd := exec.Command(exe, "-child", "-workload", name,
		"-seed", strconv.FormatInt(seed, 10), "-traced="+strconv.FormatBool(traced))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	if cmd.ProcessState == nil {
		return nil, fmt.Errorf("start repeat: %w", runErr)
	}
	rep := &repeat{Seed: seed, Traced: traced}
	if runErr == nil {
		if err := json.Unmarshal(lastLine(out.Bytes()), rep); err != nil {
			runErr = fmt.Errorf("decode repeat: %w", err)
		}
	}
	if runErr != nil {
		rep.fail(fmt.Errorf("repeat process: %w", runErr))
	}
	return rep, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// runRepeat sets the workload up, makes the measured call, and checks it.
// Every failure is recorded in the repeat rather than returned, so the
// parent counts it.
func runRepeat(wl workload, seed int64, traced bool) *repeat {
	rep := &repeat{Seed: seed, Traced: traced}
	var c call
	for i := 0; i < setupRounds; i++ {
		runtime.GC()
		cpu0 := cpuNow()
		var err error
		c, err = wl.setup(seed)
		rep.SetupS = append(rep.SetupS, cpuNow()-cpu0)
		if err != nil {
			rep.fail(fmt.Errorf("setup: %w", err))
			return rep
		}
	}
	var prof bytes.Buffer
	if traced {
		c.trace()
		// Sample faster than pprof's default 100 Hz so that thin layers
		// (obs, serve) register. StartCPUProfile then keeps this rate and
		// prints a warning that it could not set its own.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			rep.fail(fmt.Errorf("cpu profile: %w", err))
			return rep
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuNow()
	t0 := time.Now()
	err := c.run()
	rep.RunS = time.Since(t0).Seconds()
	rep.CPUS = cpuNow() - cpu0
	peakMB, peakErr := selfPeakRSSMB()
	rep.PeakRSSMB = peakMB
	runtime.ReadMemStats(&m1)
	if traced {
		pprof.StopCPUProfile()
	}
	rep.Mallocs = m1.Mallocs - m0.Mallocs
	rep.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	if err = errors.Join(err, peakErr); err != nil {
		rep.fail(fmt.Errorf("run: %w", err))
		return rep
	}
	if err := c.finish(rep); err != nil {
		rep.fail(err)
	}
	if rep.Layers == nil {
		rep.Layers = map[string]float64{}
	}
	if polls := rep.Layers["procmon.polls"]; polls > 0 {
		rep.Layers["procmon.poll_cpu_us"] = rep.CPUS * 1e6 / polls
	}
	if traced {
		rep.Layers["go.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
		rep.Layers["go.gc_pause_s"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9
		samples, err := parseProfile(prof.Bytes())
		if err != nil {
			rep.fail(err)
			return rep
		}
		rep.Samples = bucketSamples(samples)
	}
	return rep
}

// cpuNow is this process's user+system CPU time so far in seconds, without
// its children's. Unlike wall time it leaves out the time a shared host's
// hypervisor gives this VM's CPUs to others. Getrusage cannot fail for
// RUSAGE_SELF with a valid pointer.
func cpuNow() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// selfPeakRSSMB is this process's peak resident set in MiB, VmHWM in
// /proc/self/status. getrusage's max RSS would not do: a child that Go
// starts with vfork and exec inherits its parent's peak as its own floor.
func selfPeakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 64)
			return kib / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// aggregate turns repeats into the printed result and the outcome digest
// of each instance seed. A repeat whose digest differs from the first
// repeat's on the same instance fails the determinism check.
func aggregate(reps []*repeat, traceMode bool) (*result, map[int64]string) {
	digests := map[int64]string{}
	for _, r := range reps {
		if r.Digest == "" {
			continue
		}
		if d, ok := digests[r.Seed]; !ok {
			digests[r.Seed] = r.Digest
		} else if r.Digest != d {
			r.fail(errors.New("outcome digest differs from the first repeat's on the same instance"))
		}
	}
	res := &result{Correct: true, Metrics: map[string]*value{}}
	var plain, traced []*repeat
	for _, r := range reps {
		res.Attempted += r.Ops
		res.Failed += r.FailedOps
		if r.CheckErr != "" {
			res.Correct = false
		}
		if r.Traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	if !traceMode {
		// Set-up times drift with the host like the call's, so each is
		// scaled by its repeat's reference time to a host of nominal speed.
		var setups []float64
		for _, r := range plain {
			if r.CheckErr != "" {
				continue
			}
			for _, v := range r.SetupS {
				setups = append(setups, v*refNominalS/r.RefS)
			}
		}
		vals := map[string]float64{
			"setup_s":              quantile(setups, 0.5),
			"run_ref":              medianOf(plain, func(r *repeat) float64 { return r.CPUS / r.RefS }),
			"allocs_per_task":      medianOf(plain, func(r *repeat) float64 { return float64(r.Mallocs) / float64(max(r.Tasks, 1)) }),
			"alloc_bytes_per_task": medianOf(plain, func(r *repeat) float64 { return float64(r.AllocBytes) / float64(max(r.Tasks, 1)) }),
			"peak_rss_mb":          medianOf(plain, func(r *repeat) float64 { return r.PeakRSSMB }),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = &value{vals[m.name], m.unit}
		}
		return res, digests
	}

	vals := map[string]float64{}
	for _, m := range perLayer {
		vals[m.name] = medianOf(traced, func(r *repeat) float64 { return r.Layers[m.name] })
	}
	total := map[string]int64{}
	var all int64
	for _, r := range traced {
		for k, n := range r.Samples {
			total[k] += n
			all += n
		}
	}
	if all > 0 {
		for _, b := range shareLayers {
			vals[shareMetric(b)] = float64(total[b]) / float64(all)
		}
	}
	vals["bench.profile_samples"] = float64(all)
	runS := func(r *repeat) float64 { return r.RunS }
	vals["bench.run_s"] = medianOf(plain, runS)
	vals["bench.ref_s"] = medianOf(reps, func(r *repeat) float64 { return r.RefS })
	vals["bench.cpu_share"] = medianOf(plain, func(r *repeat) float64 { return r.CPUS / r.RunS })
	if base := vals["bench.run_s"]; base > 0 {
		vals["bench.trace_overhead_frac"] = medianOf(traced, runS)/base - 1
	}
	if res.Attempted > 0 {
		vals["bench.failed_frac"] = float64(res.Failed) / float64(res.Attempted)
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = &value{vals[m.name], m.unit}
	}
	return res, digests
}

// medianOf is the median of f over the repeats that passed their checks.
func medianOf(reps []*repeat, f func(*repeat) float64) float64 {
	var v []float64
	for _, r := range reps {
		if r.CheckErr == "" {
			v = append(v, f(r))
		}
	}
	return quantile(v, 0.5)
}

// quantile is the q-quantile of v by linear interpolation between order
// statistics; 0 for no values.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// provenance describes the host and toolchain that produced a result.
func provenance(seed int64) map[string]string {
	p := map[string]string{
		"seed":       strconv.FormatInt(seed, 10),
		"go":         runtime.Version(),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"cpu_model":  "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				p["cpu_model"] = strings.TrimSpace(v)
				break
			}
		}
	}
	return p
}

// printSummary writes one line per repeat and the failed checks, for a
// human reading the run.
func printSummary(w io.Writer, reps []*repeat, res *result) {
	for i, r := range reps {
		fmt.Fprintf(w, "repeat %d seed=%d traced=%v setup_s=%.4f run_s=%.4f cpu_s=%.4f ref_s=%.4f peak_rss_mb=%.1f tasks=%d ops=%d failed=%d digest=%s\n",
			i, r.Seed, r.Traced, quantile(r.SetupS, 0.5), r.RunS, r.CPUS, r.RefS, r.PeakRSSMB, r.Tasks, r.Ops, r.FailedOps, r.Digest)
		if r.CheckErr != "" {
			fmt.Fprintf(w, "repeat %d FAILED: %s\n", i, r.CheckErr)
		}
		if len(r.Samples) > 0 {
			keys := make([]string, 0, len(r.Samples))
			for k := range r.Samples {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(a, b int) bool { return r.Samples[keys[a]] > r.Samples[keys[b]] })
			var parts []string
			for _, k := range keys {
				parts = append(parts, fmt.Sprintf("%s=%d", k, r.Samples[k]))
			}
			fmt.Fprintf(w, "repeat %d profile samples: %s\n", i, strings.Join(parts, " "))
		}
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d repeats=%d\n", res.Correct, res.Attempted, res.Failed, len(reps))
}
