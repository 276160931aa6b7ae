package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"lfm"
)

// servePoint is one open-loop sweep point: a Poisson arrival stream offered
// at Load × cluster capacity for the window, with the frontend's verdict.
type servePoint struct {
	// Load is the offered load as a fraction of cluster capacity; Rate the
	// resulting arrival rate in tasks per simulated second.
	Load float64 `json:"load"`
	Rate float64 `json:"rate_hz"`

	Offered       int `json:"offered"`
	Accepted      int `json:"accepted"`
	Shed          int `json:"shed"`
	Rejected      int `json:"rejected"`
	Throttled     int `json:"throttled"`
	Backpressured int `json:"backpressured"`
	Completed     int `json:"completed"`
	Failed        int `json:"failed"`
	PeakInflight  int `json:"peak_inflight"`

	// AcceptFraction is accepted/offered; E2E quantiles are
	// arrival→completion seconds over the accepted work — the headline
	// claim is that they stay bounded past saturation because excess load
	// is shed at admission instead of queued forever.
	AcceptFraction float64 `json:"accept_fraction"`
	E2EP50         float64 `json:"e2e_p50"`
	E2EP99         float64 `json:"e2e_p99"`
	E2EP999        float64 `json:"e2e_p999"`
	Makespan       float64 `json:"makespan"`
}

// serveReport is the BENCH_serving.json document.
type serveReport struct {
	SchemaVersion  int     `json:"schema_version"`
	Workers        int     `json:"workers"`
	CoresPerWorker int     `json:"cores_per_worker"`
	CapacityHz     float64 `json:"capacity_hz"`
	Window         float64 `json:"window_s"`
	MaxInflight    int     `json:"max_inflight"`
	ShedWatermark  int     `json:"shed_watermark"`
	Seed           int64   `json:"seed"`
	// Deterministic records that re-running one sweep point with the same
	// seed reproduced a byte-identical serving report.
	Deterministic bool         `json:"deterministic"`
	Points        []servePoint `json:"points"`
}

// serveOnce executes one open-loop point: a single non-cooperative Poisson
// tenant offering rate tasks/s for window seconds against 20 four-core
// ND-CRC workers.
func serveOnce(seed int64, rate, window float64) (*lfm.Outcome, error) {
	// Enough 1-core scale tasks (uniform 10–30 s) to cover the offered
	// stream with slack; the feed just never runs dry inside the window.
	tasks := int(rate*window)*2 + 64
	w := lfm.ScaleWorkload(seed, tasks, 8)
	strategy, err := lfm.StrategyFor("auto", w)
	if err != nil {
		return nil, err
	}
	return lfm.RunWorkload(w, lfm.RunConfig{
		SiteName: "ndcrc", Workers: 20,
		WorkerCores: 4, WorkerMemoryMB: 4 * 1024, WorkerDiskMB: 8 * 1024,
		Strategy: strategy, Seed: seed, NoBatchLatency: true,
		Serving: &lfm.ServingConfig{
			Window:        lfm.Time(window),
			MaxInflight:   256,
			ShedWatermark: 192,
			Tenants: []lfm.ServingTenant{
				{Name: "open", Arrival: &lfm.PoissonArrivals{Rate: rate}},
			},
		},
	})
}

// runServe sweeps offered load across cluster capacity, open-loop, and
// writes BENCH_serving.json. The sweep demonstrates graceful degradation:
// past saturation the accept fraction falls while accepted-work p99 e2e
// latency stays bounded.
func runServe(seed int64, quick bool, outPath, loadsSpec string, stdout, stderr io.Writer) error {
	loads := []float64{0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0}
	window := 600.0
	if quick {
		loads = []float64{0.5, 1.0, 2.0}
		window = 180.0
	}
	if loadsSpec != "" {
		loads = loads[:0]
		for _, s := range strings.Split(loadsSpec, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil || v <= 0 {
				return fmt.Errorf("bad -serve-loads entry %q", s)
			}
			loads = append(loads, v)
		}
	}

	// 20 workers × 4 cores over 1-core tasks of mean 20 s ≈ 4 tasks/s.
	const capacity = 20 * 4 / 20.0
	rep := &serveReport{
		SchemaVersion: 1,
		Workers:       20, CoresPerWorker: 4, CapacityHz: capacity,
		Window: window, MaxInflight: 256, ShedWatermark: 192, Seed: seed,
	}

	msg := statusWriter(stdout, stderr, outPath)
	fmt.Fprintf(msg, "open-loop serving sweep: %d four-core ndcrc workers, capacity %.1f tasks/s, window %.0fs\n",
		rep.Workers, capacity, window)
	tw := newServeTable(msg)

	var firstServing []byte
	for i, load := range loads {
		rate := load * capacity
		out, err := serveOnce(seed, rate, window)
		if err != nil {
			return err
		}
		sv := out.Serving
		p := servePoint{
			Load: load, Rate: rate,
			Offered: sv.Offered, Accepted: sv.Accepted,
			Shed: sv.Shed, Rejected: sv.Rejected, Throttled: sv.Throttled,
			Backpressured: sv.Backpressured,
			Completed:     sv.Completed, Failed: sv.Failed,
			PeakInflight: sv.PeakInflight,
			E2EP50:       sv.E2E.P50, E2EP99: sv.E2E.P99, E2EP999: sv.E2E.P999,
			Makespan: float64(out.Makespan),
		}
		if sv.Offered > 0 {
			p.AcceptFraction = float64(sv.Accepted) / float64(sv.Offered)
		}
		rep.Points = append(rep.Points, p)
		tw.row(p)

		if i == len(loads)-1 {
			// Determinism check on the heaviest point: a second run with
			// the same seed must reproduce the serving report byte for byte.
			firstServing, err = json.Marshal(sv)
			if err != nil {
				return err
			}
			out2, err := serveOnce(seed, rate, window)
			if err != nil {
				return err
			}
			second, err := json.Marshal(out2.Serving)
			if err != nil {
				return err
			}
			rep.Deterministic = string(firstServing) == string(second)
			if !rep.Deterministic {
				return fmt.Errorf("open-loop run is not deterministic at load %.2f", load)
			}
		}
	}
	fmt.Fprintf(msg, "deterministic: %v (heaviest point re-run byte-identical)\n", rep.Deterministic)

	return writeJSON(outPath, stdout, rep)
}

// serveTable renders sweep points as an aligned progress table.
type serveTable struct {
	w io.Writer
}

func newServeTable(w io.Writer) *serveTable {
	fmt.Fprintf(w, "%6s %8s %8s %8s %6s %6s %6s %9s %9s\n",
		"load", "offered", "accepted", "shed", "rej", "thr", "peak", "p50 e2e", "p99 e2e")
	return &serveTable{w: w}
}

func (t *serveTable) row(p servePoint) {
	fmt.Fprintf(t.w, "%5.2fx %8d %8d %8d %6d %6d %6d %8.1fs %8.1fs\n",
		p.Load, p.Offered, p.Accepted, p.Shed, p.Rejected, p.Throttled,
		p.PeakInflight, p.E2EP50, p.E2EP99)
}
