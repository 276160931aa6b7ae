package main

import (
	"fmt"
	"io"
	"os"

	"lfm"
)

// obsOptions gathers the observability flags shared by the chaos and
// standalone obs runs.
type obsOptions struct {
	out     string  // -obs-out: JSONL stream destination ("-" for stdout)
	cadence float64 // -obs-cadence: snapshot period in simulated seconds
	top     bool    // -top: live lfmtop dashboard on stderr
	summary string  // -summary-out: unified run summary JSON destination
	archive string  // -archive-out: run-archive destination

	dash *lfm.ObsTop // the -top dashboard of the last run
}

func (o *obsOptions) enabled() bool {
	return o.out != "" || o.top || o.summary != "" || o.archive != ""
}

// run executes w under scfg, attaching the observability plane when any of
// its flags is set and a span trace when traced or archived. It returns the
// outcome and the trace, if one was attached.
func (o *obsOptions) run(w *lfm.Workload, scfg lfm.ScenarioConfig, traced bool, stdout, stderr io.Writer) (*lfm.Outcome, *lfm.ExecutionTrace, error) {
	cfg, err := scfg.Materialize(w)
	if err != nil {
		return nil, nil, err
	}
	if traced || o.archive != "" {
		cfg.Trace = &lfm.ExecutionTrace{}
	}
	var stream *os.File
	if o.enabled() {
		cfg.Obs = &lfm.ObsConfig{Cadence: lfm.Time(o.cadence)}
		switch o.out {
		case "":
		case "-":
			cfg.Obs.Stream = stdout
		default:
			if stream, err = os.Create(o.out); err != nil {
				return nil, nil, err
			}
			cfg.Obs.Stream = stream
		}
		// The dashboard renders to stderr so a stdout stream stays
		// parseable.
		if o.top {
			o.dash = &lfm.ObsTop{W: stderr}
			cfg.Obs.OnSnapshot = o.dash.OnSnapshot
		}
	}
	out, err := lfm.RunWorkload(w, cfg)
	if stream != nil {
		if cerr := stream.Close(); err == nil {
			err = cerr
		}
	}
	return out, cfg.Trace, err
}

// finish writes the run archive, which records scfg, the config that ran,
// renders the final dashboard frame, writes the summary document, and
// prints the health verdict.
func (o *obsOptions) finish(out *lfm.Outcome, w *lfm.Workload, scfg lfm.ScenarioConfig, stdout, msg, stderr io.Writer) error {
	if !o.enabled() {
		return nil
	}
	if o.archive != "" {
		if err := writeArchive(o.archive, out, w, scfg, msg); err != nil {
			return err
		}
	}
	if o.dash != nil && out.Obs != nil {
		o.dash.Final(out.Obs.Final)
		fmt.Fprintln(stderr)
	}
	if o.summary != "" {
		if err := writeTo(o.summary, stdout, out.WriteSummaryJSON); err != nil {
			return err
		}
	}
	if h := out.Health; h != nil {
		verdict := "healthy"
		if !h.Healthy {
			verdict = "UNHEALTHY (worst: " + h.Worst() + ")"
		}
		fmt.Fprintf(msg, "  health: %s, %d findings over %d snapshots\n",
			verdict, len(h.Findings), h.Snapshots)
		for _, f := range h.Findings {
			fmt.Fprintf(msg, "    [%s] %s: %s\n", f.Severity, f.Rule, f.Detail)
		}
		if o.out != "" && o.out != "-" {
			fmt.Fprintf(msg, "  render the report with: lfm report %s\n", o.out)
		}
	}
	return nil
}

// writeArchive builds and writes the run's archive: header config echo,
// outcome digest, and the scheduler event stream.
func writeArchive(path string, out *lfm.Outcome, w *lfm.Workload, cfg lfm.ScenarioConfig, msg io.Writer) error {
	digest, err := lfm.ScenarioOutcomeDigest(out, w.Tasks)
	if err != nil {
		return err
	}
	arch := lfm.BuildRunArchive(out, cfg, lfm.RunArchiveOptions{Digest: digest, Events: true})
	data, err := lfm.WriteRunArchive(arch)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(msg, "  archive -> %s (%d bytes, %d events); compare with: lfm diff compare\n",
		path, len(data), len(arch.Events))
	return nil
}

// runObs executes the HEP benchmark point (no faults) with the streaming
// observability plane attached — the quiet-run counterpart of runChaos for
// -obs-out / -top / -summary-out / -archive-out without -chaos-profile.
func runObs(seed int64, opts *obsOptions, stdout, stderr io.Writer) error {
	w := lfm.HEPWorkload(seed, 200)
	scfg := hepPoint(seed)
	out, _, err := opts.run(w, scfg, false, stdout, stderr)
	if err != nil {
		return err
	}
	msg := statusWriter(stdout, stderr, opts.out, opts.summary)
	fin := out.Obs.Final
	fmt.Fprintf(msg, "observed %s run: %d tasks, makespan %.0fs, %d snapshot boundaries, sched p99 %.3gs, e2e p99 %.3gs\n",
		out.Workload, out.TaskCount, float64(out.Makespan), out.Obs.Boundaries,
		fin.SchedLatency.P99, fin.E2ELatency.P99)
	return opts.finish(out, w, scfg, stdout, msg, stderr)
}
