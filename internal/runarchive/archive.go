// Package runarchive owns the versioned run-archive container: a
// self-contained JSONL artifact capturing everything the differential
// observability layer (internal/diffobs, cmd/lfmdiff) needs to compare two
// runs without re-running either — the serializable scenario configuration
// and seed, the unified run summary (which carries the scheduler counters,
// waste roll-up, serving accounting, and health findings), the decimated
// obs snapshot stream, the telemetry category profiles, the critical-path
// bottleneck buckets, and optionally the flat scheduler event stream for
// first-divergence bisection. Archives are written by `lfmscenario run
// -archive` and `lfmbench -archive-out`, committed as baselines under
// baselines/, and read back standalone by `lfmdiff`.
//
// The container is an internal/artifact envelope stream (DESIGN.md,
// "Artifact containers"): "kind"-tagged lines, the first the header and
// the last the footer; readers accept versions 1..SchemaVersion and refuse
// others with a typed *artifact.Error. Output is
// byte-deterministic for a seed: the writer zeroes the scheduler wall-clock
// nanos (the only hardware-noise field) unless explicitly told to keep
// them, so two same-seed archives are byte-identical.
package runarchive

import (
	"bytes"

	"lfm/internal/artifact"
	"lfm/internal/core"
	"lfm/internal/obs"
	"lfm/internal/sim"
	"lfm/internal/trace"
	"lfm/internal/tseries"
	"lfm/internal/wq"
)

// Format, SchemaVersion, and ToolVersion identify the archive container.
// Bump SchemaVersion when the schema changes shape; never reuse a version.
// ToolVersion is stamped into headers so a reader can name the writer when
// rejecting or explaining an artifact.
const (
	Format        = "lfm-run-archive"
	SchemaVersion = 1
	ToolVersion   = "lfm-0.10"
)

// format is the archive's container policy: "kind"-tagged lines between
// a versioned header and a footer; an unknown kind from a same-or-older
// version is corruption (a newer writer would have bumped the version and
// been refused).
var format = &artifact.Format{
	Name: "archive", Tag: "kind",
	Header: "header", Magic: Format, VersionKey: "version",
	MinVersion: 1, Version: SchemaVersion,
	Footer: "footer",
	Keys:   map[string]string{"final": "snapshot"},
}

// Header is the first line: the format tag, the writing tool, the run's
// identity, and the full serializable configuration that produced it.
type Header struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Tool    string `json:"tool"`
	// Scenario is the registry name of an archived scenario run, empty for
	// ad-hoc benchmark archives.
	Scenario string `json:"scenario,omitempty"`
	// Workload is the generated workload's display name.
	Workload string `json:"workload"`
	// Seed echoes Config.Seed for greppability.
	Seed int64 `json:"seed"`
	// Config is the behavioural run configuration; two archives with equal
	// Configs and Seeds should be byte-identical (the determinism
	// contract), which is what first-divergence bisection exploits.
	Config core.ScenarioConfig `json:"config"`
	// Digest is the scenario outcome digest of the archived run, empty
	// when the writer had no task list to fingerprint.
	Digest string `json:"digest,omitempty"`
	// Makespan is the run's simulated duration.
	Makespan sim.Time `json:"makespan"`
}

// Footer closes the archive: expected line counts plus the digest echoed
// from the header, so truncation is always detectable.
type Footer struct {
	Snapshots int    `json:"snapshots"`
	Events    int    `json:"events"`
	Digest    string `json:"digest,omitempty"`
}

// obsInfo is the snapshot stream's envelope: RunObs minus the snapshots,
// which follow as their own lines.
type obsInfo struct {
	Meta       obs.StreamMeta `json:"meta"`
	Cadence    sim.Time       `json:"cadence"`
	Boundaries int            `json:"boundaries"`
	Stride     int            `json:"stride"`
}

// Archive is one parsed (or buildable) run archive.
type Archive struct {
	Header Header
	// Summary is the unified run summary: headline numbers, scheduler
	// counters (wall nanos zeroed), waste roll-up, serving accounting, and
	// health findings.
	Summary *core.RunSummary
	// Sched is the matching loop's work counters. ElapsedNanos is zero
	// unless the archive was written with KeepWall (which trades byte-
	// determinism for wall-clock visibility).
	Sched *wq.SchedStats
	// Obs is the retained snapshot ring plus the exact final snapshot;
	// nil when the archived run had no observability plane attached.
	Obs *obs.RunObs
	// Profiles are the telemetry layer's per-category usage profiles.
	Profiles []*tseries.ProfileSummary
	// Bottlenecks are the trace subsystem's per-category time buckets and
	// Phases the critical path's per-phase shares — the attribution inputs
	// the diff engine consults when a metric regresses.
	Bottlenecks []trace.Bucket
	Phases      []trace.PhaseShare
	// Events is the flat, time-ordered scheduler event stream, present
	// only when the archive was written with Events — the substrate of
	// first-divergence bisection.
	Events []wq.Event
}

// BuildOptions parameterize Build.
type BuildOptions struct {
	// Scenario names the archived scenario run (empty for ad-hoc runs).
	Scenario string
	// Digest is the run's outcome digest (scenario.OutcomeDigest).
	Digest string
	// Events includes the flat scheduler event stream, enabling
	// first-divergence bisection at the cost of archive size.
	Events bool
	// KeepWall preserves SchedStats.ElapsedNanos. Off by default: wall
	// nanos are hardware noise and would break the byte-determinism of
	// same-seed archives.
	KeepWall bool
}

// Build assembles an archive from a finished run. The outcome's trace
// (Outcome.Trace, attached via RunConfig.Trace) supplies the bottleneck
// buckets, critical-path phases, and — with opt.Events — the event stream;
// all three sections are simply absent on untraced runs.
func Build(out *core.Outcome, cfg core.ScenarioConfig, opt BuildOptions) *Archive {
	a := &Archive{
		Header: Header{
			Format: Format, Version: SchemaVersion, Tool: ToolVersion,
			Scenario: opt.Scenario, Workload: out.Workload,
			Seed: cfg.Seed, Config: cfg,
			Digest: opt.Digest, Makespan: out.Makespan,
		},
		Summary: out.Summary(),
		Obs:     out.Obs,
	}
	if out.Sched != nil {
		sched := *out.Sched
		if !opt.KeepWall {
			sched.ElapsedNanos = 0
		}
		a.Sched = &sched
	}
	if out.Telemetry != nil {
		a.Profiles = out.Telemetry.Profiles
	}
	if out.Trace != nil {
		st := out.Trace.Store()
		a.Bottlenecks = st.Bottlenecks(false)
		if cp := st.CriticalPath(); cp != nil {
			a.Phases = cp.Phases
		}
		if opt.Events {
			a.Events = out.Trace.Events()
		}
	}
	return a
}

// Write serializes the archive as JSONL. Output is byte-deterministic for
// identical archives.
func Write(a *Archive) ([]byte, error) {
	var buf bytes.Buffer
	w := format.NewWriter(&buf)
	hdr := a.Header
	if hdr.Format == "" {
		hdr.Format = Format
	}
	if hdr.Version == 0 {
		hdr.Version = SchemaVersion
	}
	w.Put("header", &hdr)
	if a.Summary != nil {
		w.Put("summary", a.Summary)
	}
	if a.Sched != nil {
		w.Put("sched", a.Sched)
	}
	snapshots := 0
	if a.Obs != nil {
		w.Put("obs", &obsInfo{
			Meta: a.Obs.Meta, Cadence: a.Obs.Cadence,
			Boundaries: a.Obs.Boundaries, Stride: a.Obs.Stride,
		})
		for _, s := range a.Obs.Snapshots {
			w.Put("snapshot", s)
		}
		snapshots = len(a.Obs.Snapshots)
		if a.Obs.Final != nil {
			w.Put("final", a.Obs.Final)
		}
	}
	for _, p := range a.Profiles {
		w.Put("profile", p)
	}
	for i := range a.Bottlenecks {
		w.Put("bottleneck", &a.Bottlenecks[i])
	}
	for i := range a.Phases {
		w.Put("phase", &a.Phases[i])
	}
	for i := range a.Events {
		w.Put("event", &a.Events[i])
	}
	w.Put("footer", &Footer{Snapshots: snapshots, Events: len(a.Events), Digest: hdr.Digest})
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Read parses and validates an archive; every failure is a typed
// *artifact.Error.
func Read(data []byte) (*Archive, error) {
	a := &Archive{}
	var oi *obsInfo
	var snaps []*obs.Snapshot
	var final *obs.Snapshot
	var footer *Footer
	err := format.Read(bytes.NewReader(data), artifact.Handlers{
		"header":     artifact.Into(func(h *Header) { a.Header = *h }),
		"summary":    artifact.Into(func(s *core.RunSummary) { a.Summary = s }),
		"sched":      artifact.Into(func(s *wq.SchedStats) { a.Sched = s }),
		"obs":        artifact.Into(func(o *obsInfo) { oi = o }),
		"snapshot":   artifact.Into(func(s *obs.Snapshot) { snaps = append(snaps, s) }),
		"final":      artifact.Into(func(s *obs.Snapshot) { final = s }),
		"profile":    artifact.Into(func(p *tseries.ProfileSummary) { a.Profiles = append(a.Profiles, p) }),
		"bottleneck": artifact.Into(func(b *trace.Bucket) { a.Bottlenecks = append(a.Bottlenecks, *b) }),
		"phase":      artifact.Into(func(p *trace.PhaseShare) { a.Phases = append(a.Phases, *p) }),
		"event":      artifact.Into(func(e *wq.Event) { a.Events = append(a.Events, *e) }),
		"footer":     artifact.Into(func(f *Footer) { footer = f }),
	})
	if err != nil {
		return nil, err
	}
	corrupt := func(detail string, args ...any) (*Archive, error) {
		return nil, format.Errorf(artifact.Corrupt, detail, args...)
	}
	switch {
	case len(snaps) != footer.Snapshots:
		return corrupt("%d snapshot lines, footer says %d", len(snaps), footer.Snapshots)
	case len(a.Events) != footer.Events:
		return corrupt("%d event lines, footer says %d", len(a.Events), footer.Events)
	case footer.Digest != a.Header.Digest:
		return corrupt("footer digest %q != header digest %q", footer.Digest, a.Header.Digest)
	case a.Summary == nil:
		return corrupt("archive has no summary line")
	case oi == nil && (len(snaps) > 0 || final != nil):
		return corrupt("snapshot lines without an obs line")
	case oi == nil:
		return a, nil
	case final == nil:
		return corrupt("obs section without a final line")
	case !(oi.Cadence > 0) || oi.Stride < 1:
		return corrupt("obs cadence %v and stride %d, want cadence > 0 and stride >= 1", oi.Cadence, oi.Stride)
	case final.At > sim.Time(len(snaps)+1)*oi.Cadence*sim.Time(oi.Stride):
		// The diff engine resamples on a grid of Cadence×Stride steps up
		// to the final snapshot; a final this far past the retained ring
		// could not come from a bus, and would make that grid unbounded.
		return corrupt("final snapshot at %v lies past %d snapshots of %v×%d", final.At, len(snaps), oi.Cadence, oi.Stride)
	}
	a.Obs = &obs.RunObs{
		Meta: oi.Meta, Cadence: oi.Cadence,
		Boundaries: oi.Boundaries, Stride: oi.Stride,
		Snapshots: snaps, Final: final,
	}
	return a, nil
}
