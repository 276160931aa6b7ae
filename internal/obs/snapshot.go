package obs

import (
	"io"

	"lfm/internal/artifact"
	"lfm/internal/metrics"
	"lfm/internal/sim"
)

// LatencyQuantiles summarizes one latency histogram at a boundary. Values
// are interpolated within fixed log-spaced buckets and clamped to the
// observed min/max, so they are deterministic for a given seed.
type LatencyQuantiles struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean,omitempty"`
	P50   float64 `json:"p50,omitempty"`
	P99   float64 `json:"p99,omitempty"`
	P999  float64 `json:"p999,omitempty"`
	Max   float64 `json:"max,omitempty"`
}

// Summarize reads the standard quantile set off a histogram (the serving
// frontend summarizes its e2e histograms with it too).
func Summarize(h *metrics.Histogram) LatencyQuantiles {
	return LatencyQuantiles{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   h.Max(),
	}
}

// CategoryLatency is one category's cumulative latency quantiles. Sched is
// submit→first-placement, E2E submit→successful-completion.
type CategoryLatency struct {
	Category string           `json:"category"`
	Sched    LatencyQuantiles `json:"sched"`
	E2E      LatencyQuantiles `json:"e2e"`
}

// SchedDelta counts matching-loop work between two built snapshots — the
// streaming view of wq.SchedStats.
type SchedDelta struct {
	Passes     int64 `json:"passes,omitempty"`
	Tasks      int64 `json:"tasks,omitempty"`
	Candidates int64 `json:"candidates,omitempty"`
	Wakes      int64 `json:"wakes,omitempty"`
}

// ChaosEvent is one recent fault injection on the snapshot ticker.
type ChaosEvent struct {
	At   sim.Time `json:"at"`
	Kind string   `json:"kind"`
}

// Snapshot is the run's state sealed at one cadence boundary. Counts are
// instantaneous levels unless named otherwise; Submitted/Completed/Failed/
// Retries/QuarantineTrips/ChaosInjected/Anomalies and the latency
// quantiles are cumulative since the run started. Blocked is the subset of
// QueueDepth parked behind unfinished category strategies.
type Snapshot struct {
	// Seq is the boundary index (At == Seq × cadence, except the final
	// snapshot, sealed at the makespan).
	Seq int      `json:"seq"`
	At  sim.Time `json:"at"`

	QueueDepth  int `json:"queue_depth"`
	Blocked     int `json:"blocked,omitempty"`
	Running     int `json:"running"`
	Speculating int `json:"speculating,omitempty"`

	Submitted int `json:"submitted"`
	Completed int `json:"completed"`
	Failed    int `json:"failed,omitempty"`
	Retries   int `json:"retries,omitempty"`

	WorkersAlive       int `json:"workers_alive"`
	WorkersQuarantined int `json:"workers_quarantined,omitempty"`
	QuarantineTrips    int `json:"quarantine_trips,omitempty"`

	PoolCores      float64 `json:"pool_cores"`
	AllocatedCores float64 `json:"allocated_cores"`
	// Utilization is AllocatedCores/PoolCores at this instant (0 with an
	// empty pool).
	Utilization float64 `json:"utilization"`

	// Sched is the matching work done since the previous built snapshot.
	Sched SchedDelta `json:"sched,omitempty"`

	ChaosInjected int          `json:"chaos_injected,omitempty"`
	Events        []ChaosEvent `json:"events,omitempty"`
	Anomalies     int          `json:"anomalies,omitempty"`

	// Serving-frontend counters (cumulative), pushed by internal/serve when
	// RunConfig.Serving is set; all zero — and omitted from the JSON, so
	// serving-off streams stay byte-identical — otherwise. Accepted tasks
	// are exactly Submitted.
	Offered       int `json:"offered,omitempty"`
	Shed          int `json:"shed,omitempty"`
	Rejected      int `json:"rejected,omitempty"`
	Throttled     int `json:"throttled,omitempty"`
	Backpressured int `json:"backpressured,omitempty"`

	SchedLatency LatencyQuantiles  `json:"sched_latency"`
	E2ELatency   LatencyQuantiles  `json:"e2e_latency"`
	Categories   []CategoryLatency `json:"categories,omitempty"`
}

// RunObs is everything the bus retained for one run: the decimated
// snapshot ring spanning the whole timeline plus the exact final snapshot
// at the makespan.
type RunObs struct {
	Meta    StreamMeta `json:"meta"`
	Cadence sim.Time   `json:"cadence"`
	// Boundaries counts every sealed boundary; Stride is the ring's final
	// retention stride (1 means nothing was decimated).
	Boundaries int         `json:"boundaries"`
	Stride     int         `json:"stride"`
	Snapshots  []*Snapshot `json:"snapshots,omitempty"`
	Final      *Snapshot   `json:"final"`
}

// StreamVersion is the obs JSONL stream schema version, stamped on the
// meta line. Readers accept any version up to it (absent means 0, the
// pre-versioning format) and refuse newer streams with a typed
// *artifact.Error.
const StreamVersion = 1

// streamFormat is the stream's container policy: "type"-tagged lines led
// by the meta line — "snapshot" lines, then "final" (its payload under
// "snapshot") and "health". Unknown types are skipped so the format can
// grow.
var streamFormat = &artifact.Format{
	Name: "obs stream", Tag: "type",
	Header: "meta", VersionKey: "schema_version", Version: StreamVersion,
	Keys:        map[string]string{"final": "snapshot"},
	SkipUnknown: true,
}

type metaLine struct {
	SchemaVersion int `json:"schema_version"`
	StreamMeta
	Cadence sim.Time `json:"cadence"`
	RingCap int      `json:"ring_cap"`
}

// Stream is a parsed obs JSONL stream.
type Stream struct {
	// SchemaVersion is the meta line's schema_version (0 for streams
	// predating versioning).
	SchemaVersion int
	Meta          StreamMeta
	Cadence       sim.Time
	RingCap       int
	Snapshots     []*Snapshot
	Final         *Snapshot
	Health        *Health
}

// RunObs reassembles the stream into the in-memory form Analyze consumes.
// A streamed run carries every boundary, so Stride is 1.
func (s *Stream) RunObs() *RunObs {
	ro := &RunObs{
		Meta: s.Meta, Cadence: s.Cadence,
		Boundaries: len(s.Snapshots), Stride: 1,
		Snapshots: s.Snapshots, Final: s.Final,
	}
	if ro.Final == nil && len(s.Snapshots) > 0 {
		ro.Final = s.Snapshots[len(s.Snapshots)-1]
	}
	return ro
}

// ReadStream parses one obs JSONL stream; every failure is a typed
// *artifact.Error.
func ReadStream(r io.Reader) (*Stream, error) {
	out := &Stream{}
	err := streamFormat.Read(r, artifact.Handlers{
		"meta": artifact.Into(func(m *metaLine) {
			out.SchemaVersion = m.SchemaVersion
			out.Meta = m.StreamMeta
			out.Cadence = m.Cadence
			out.RingCap = m.RingCap
		}),
		"snapshot": artifact.Into(func(s *Snapshot) { out.Snapshots = append(out.Snapshots, s) }),
		"final":    artifact.Into(func(s *Snapshot) { out.Final = s }),
		"health":   artifact.Into(func(h *Health) { out.Health = h }),
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
