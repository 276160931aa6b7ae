package tseries

import (
	"bufio"
	"fmt"
	"io"

	"lfm/internal/artifact"
	"lfm/internal/monitor"
	"lfm/internal/sim"
)

// RunMeta identifies one run in an export.
type RunMeta struct {
	Workload string   `json:"workload,omitempty"`
	Strategy string   `json:"strategy,omitempty"`
	Workers  int      `json:"workers,omitempty"`
	Seed     int64    `json:"seed,omitempty"`
	Makespan sim.Time `json:"makespan"`
}

// AttemptSummary is one recorded attempt: identity, outcome, and its bounded
// usage series.
type AttemptSummary struct {
	Task        int               `json:"task"`
	Attempt     int               `json:"attempt"`
	Speculative bool              `json:"speculative,omitempty"`
	Category    string            `json:"category,omitempty"`
	Node        int               `json:"node"`
	Outcome     string            `json:"outcome"`
	Start       sim.Time          `json:"start"`
	End         sim.Time          `json:"end"`
	Requested   monitor.Resources `json:"requested"`
	// Peak is the exact componentwise maximum over every raw measurement
	// (never degraded by downsampling).
	Peak monitor.Resources `json:"peak"`
	// RawMeasurements counts measurements streamed in; Stride is the final
	// decimation stride (1 means the series never hit its cap).
	RawMeasurements int `json:"raw_measurements"`
	Stride          int `json:"stride"`
	// Series is the bounded, delta-encoded usage timeline.
	Series []Point `json:"series"`
}

// RunTelemetry is everything the collector recorded for one run.
type RunTelemetry struct {
	Meta RunMeta `json:"meta"`
	// SeriesCap is the per-series point bound the run was recorded under.
	SeriesCap int                `json:"series_cap"`
	Profiles  []*ProfileSummary  `json:"profiles,omitempty"`
	Nodes     []*NodeSummary     `json:"nodes,omitempty"`
	Attempts  []AttemptSummary   `json:"attempts,omitempty"`
	Anomalies []Anomaly          `json:"anomalies,omitempty"`
	Util      UtilizationSummary `json:"util"`
}

// CheckInvariants verifies the telemetry guarantees on an exported run:
// every attempt series within the point cap, monotone (non-negative) deltas,
// merged counts summing to the raw measurement count, and the downsampled
// series still bracketing the exact peak; node timelines monotone and
// bounded too.
func (rt *RunTelemetry) CheckInvariants() error {
	if rt == nil {
		return fmt.Errorf("tseries: nil telemetry")
	}
	for _, a := range rt.Attempts {
		if err := checkPoints(a.Series, rt.SeriesCap, a.RawMeasurements, &a.Peak); err != nil {
			return fmt.Errorf("attempt %d.%d: %w", a.Task, a.Attempt, err)
		}
	}
	for _, n := range rt.Nodes {
		if err := checkPoints(n.Alloc, 0, -1, nil); err != nil {
			return fmt.Errorf("node %d alloc: %w", n.Node, err)
		}
		if err := checkPoints(n.Used, 0, -1, nil); err != nil {
			return fmt.Errorf("node %d used: %w", n.Node, err)
		}
		if n.UsedCoreSeconds < -1e-6 || n.AllocatedCoreSeconds < -1e-6 {
			return fmt.Errorf("node %d: negative integral", n.Node)
		}
	}
	return nil
}

// checkPoints validates one exported series. cap 0 skips the bound check,
// raw -1 the count check, a nil peak the peak check.
func checkPoints(pts []Point, cap, raw int, peak *monitor.Resources) error {
	if cap > 0 && len(pts) > cap {
		return fmt.Errorf("%d points exceed cap %d", len(pts), cap)
	}
	var merged int
	var max monitor.Resources
	for i, p := range pts {
		if p.DT < 0 {
			return fmt.Errorf("point %d has negative delta %v", i, p.DT)
		}
		if p.N <= 0 {
			return fmt.Errorf("point %d merged %d measurements", i, p.N)
		}
		merged += p.N
		max = max.Max(p.U)
	}
	if raw >= 0 && merged != raw {
		return fmt.Errorf("points account %d of %d raw measurements", merged, raw)
	}
	if peak != nil && len(pts) > 0 && max != *peak {
		return fmt.Errorf("downsampled max %v lost the exact peak %v", max, *peak)
	}
	return nil
}

// ExportVersion is the telemetry JSONL schema version, stamped on every
// run's meta line. Readers accept any version up to it (absent means 0,
// the pre-versioning format) and refuse newer exports with a typed
// *artifact.Error.
const ExportVersion = 1

// exportFormat is the export's container policy: "type"-tagged lines, a
// run being a "meta" line followed by its "profile", "node", "attempt",
// "anomaly" and "util" records; files concatenate runs. Unknown types are
// skipped so the format can grow.
var exportFormat = &artifact.Format{
	Name: "telemetry export", Tag: "type",
	Header: "meta", VersionKey: "schema_version", Version: ExportVersion,
	Concat: true, SkipUnknown: true,
}

type metaLine struct {
	SchemaVersion int `json:"schema_version"`
	RunMeta
	SeriesCap int `json:"series_cap"`
}

// WriteJSONL streams the run as line-delimited JSON: one meta line, then one
// line per profile/node/attempt/anomaly, then the utilization summary.
// Output is byte-deterministic for identical telemetry.
func (rt *RunTelemetry) WriteJSONL(w io.Writer) error {
	out := exportFormat.NewWriter(w)
	out.Put("meta", &metaLine{SchemaVersion: ExportVersion, RunMeta: rt.Meta, SeriesCap: rt.SeriesCap})
	for _, p := range rt.Profiles {
		out.Put("profile", p)
	}
	for _, n := range rt.Nodes {
		out.Put("node", n)
	}
	for i := range rt.Attempts {
		out.Put("attempt", &rt.Attempts[i])
	}
	for i := range rt.Anomalies {
		out.Put("anomaly", &rt.Anomalies[i])
	}
	out.Put("util", &rt.Util)
	return out.Flush()
}

// ReadJSONL parses a (possibly multi-run) JSONL telemetry stream back into
// runs; every failure is a typed *artifact.Error.
func ReadJSONL(r io.Reader) ([]*RunTelemetry, error) {
	var runs []*RunTelemetry
	var cur *RunTelemetry
	err := exportFormat.Read(r, artifact.Handlers{
		"meta": artifact.Into(func(m *metaLine) {
			cur = &RunTelemetry{Meta: m.RunMeta, SeriesCap: m.SeriesCap}
			runs = append(runs, cur)
		}),
		"profile": artifact.Into(func(p *ProfileSummary) { cur.Profiles = append(cur.Profiles, p) }),
		"node":    artifact.Into(func(n *NodeSummary) { cur.Nodes = append(cur.Nodes, n) }),
		"attempt": artifact.Into(func(a *AttemptSummary) { cur.Attempts = append(cur.Attempts, *a) }),
		"anomaly": artifact.Into(func(a *Anomaly) { cur.Anomalies = append(cur.Anomalies, *a) }),
		"util":    artifact.Into(func(u *UtilizationSummary) { cur.Util = *u }),
	})
	if err != nil {
		return nil, err
	}
	return runs, nil
}

// WriteSeriesCSV exports every attempt's series as flat CSV rows
// (task, attempt, category, node, t, cores, mem_mb, disk_mb, merged, src)
// with absolute timestamps reconstructed from the deltas — the
// spreadsheet-friendly view of the same data.
func (rt *RunTelemetry) WriteSeriesCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "task,attempt,category,node,t,cores,mem_mb,disk_mb,merged,src"); err != nil {
		return err
	}
	for _, a := range rt.Attempts {
		t := a.Start
		for _, p := range a.Series {
			t += p.DT
			if _, err := fmt.Fprintf(bw, "%d,%d,%s,%d,%g,%g,%g,%g,%d,%d\n",
				a.Task, a.Attempt, a.Category, a.Node,
				float64(t), p.U.Cores, p.U.MemoryMB, p.U.DiskMB, p.N, p.Src); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
