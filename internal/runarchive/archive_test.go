package runarchive_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"lfm/internal/artifact"
	"lfm/internal/core"
	"lfm/internal/obs"
	"lfm/internal/runarchive"
	"lfm/internal/sim"
	"lfm/internal/workloads"
	"lfm/internal/wq"
)

// archiveRun executes a small traced+observed run and builds its archive.
func archiveRun(t *testing.T, seed int64, events bool) *runarchive.Archive {
	t.Helper()
	cfg := core.ScenarioConfig{Workers: 6, WorkerCores: 4, Seed: seed}
	w := workloads.HEP(sim.NewRNG(seed), 40)
	tr := &wq.Trace{}
	out, err := cfg.RunScenario(w, func(rc *core.RunConfig) {
		rc.Trace = tr
		rc.Obs = &obs.Config{Cadence: 5 * sim.Second, RingCap: 32}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return runarchive.Build(out, cfg, runarchive.BuildOptions{
		Scenario: "test-run", Digest: "sha256:feed", Events: events,
	})
}

func TestArchiveRoundTrip(t *testing.T) {
	a := archiveRun(t, 11, true)
	data, err := runarchive.Write(a)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := runarchive.Read(data)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Header != a.Header {
		t.Errorf("header changed: %+v vs %+v", got.Header, a.Header)
	}
	if got.Summary == nil || got.Summary.Makespan != a.Summary.Makespan {
		t.Errorf("summary lost in round trip")
	}
	if got.Sched == nil || got.Sched.Passes != a.Sched.Passes {
		t.Errorf("sched stats lost in round trip")
	}
	if got.Obs == nil || len(got.Obs.Snapshots) != len(a.Obs.Snapshots) {
		t.Fatalf("obs snapshots: got %d, want %d", len(got.Obs.Snapshots), len(a.Obs.Snapshots))
	}
	if got.Obs.Final == nil || got.Obs.Final.At != a.Obs.Final.At {
		t.Errorf("final snapshot lost in round trip")
	}
	if len(got.Bottlenecks) != len(a.Bottlenecks) || len(got.Phases) != len(a.Phases) {
		t.Errorf("attribution sections lost: %d/%d buckets, %d/%d phases",
			len(got.Bottlenecks), len(a.Bottlenecks), len(got.Phases), len(a.Phases))
	}
	if len(got.Events) != len(a.Events) || len(got.Events) == 0 {
		t.Fatalf("events: got %d, want %d (nonzero)", len(got.Events), len(a.Events))
	}
	if got.Events[0] != a.Events[0] {
		t.Errorf("first event changed: %+v vs %+v", got.Events[0], a.Events[0])
	}
	// The re-serialization of the parsed archive must be byte-identical.
	again, err := runarchive.Write(got)
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if !bytes.Equal(data, again) {
		t.Errorf("write(read(x)) differs from x")
	}
}

func TestArchiveByteDeterminism(t *testing.T) {
	a := archiveRun(t, 23, true)
	b := archiveRun(t, 23, true)
	da, err := runarchive.Write(a)
	if err != nil {
		t.Fatalf("write a: %v", err)
	}
	db, err := runarchive.Write(b)
	if err != nil {
		t.Fatalf("write b: %v", err)
	}
	if !bytes.Equal(da, db) {
		t.Fatalf("same-seed archives differ (%d vs %d bytes)", len(da), len(db))
	}
	// A different seed must differ (the digest is seed-independent here,
	// but the summary and streams are not).
	dc, err := runarchive.Write(archiveRun(t, 24, true))
	if err != nil {
		t.Fatalf("write c: %v", err)
	}
	if bytes.Equal(da, dc) {
		t.Fatalf("different-seed archives are byte-identical")
	}
}

// wantArchiveError asserts err is an *artifact.Error with the given reason.
func wantArchiveError(t *testing.T, err error, reason string) {
	t.Helper()
	var ae *artifact.Error
	if !errors.As(err, &ae) {
		t.Fatalf("got %v, want *artifact.Error", err)
	}
	if ae.Reason != reason {
		t.Fatalf("reason %q, want %q (err: %v)", ae.Reason, reason, err)
	}
}

func TestArchiveReadErrors(t *testing.T) {
	a := archiveRun(t, 31, false)
	data, err := runarchive.Write(a)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")

	t.Run("empty", func(t *testing.T) {
		_, err := runarchive.Read(nil)
		wantArchiveError(t, err, artifact.BadFormat)
	})
	t.Run("not-jsonl", func(t *testing.T) {
		_, err := runarchive.Read([]byte("definitely not json\n"))
		wantArchiveError(t, err, artifact.BadFormat)
	})
	t.Run("wrong-format-tag", func(t *testing.T) {
		_, err := runarchive.Read([]byte(`{"kind":"header","header":{"format":"something-else","version":1}}` + "\n"))
		wantArchiveError(t, err, artifact.BadFormat)
	})
	t.Run("newer-version", func(t *testing.T) {
		_, err := runarchive.Read([]byte(`{"kind":"header","header":{"format":"lfm-run-archive","version":99}}` + "\n"))
		wantArchiveError(t, err, artifact.BadVersion)
	})
	t.Run("truncated", func(t *testing.T) {
		_, err := runarchive.Read([]byte(strings.Join(lines[:len(lines)-1], "\n") + "\n"))
		wantArchiveError(t, err, artifact.Corrupt)
	})
	t.Run("snapshot-count-mismatch", func(t *testing.T) {
		// Drop one snapshot line but keep the footer.
		var kept []string
		dropped := false
		for _, l := range lines {
			if !dropped && strings.HasPrefix(l, `{"kind":"snapshot"`) {
				dropped = true
				continue
			}
			kept = append(kept, l)
		}
		if !dropped {
			t.Fatal("no snapshot line to drop")
		}
		_, err := runarchive.Read([]byte(strings.Join(kept, "\n") + "\n"))
		wantArchiveError(t, err, artifact.Corrupt)
	})
	t.Run("content-after-footer", func(t *testing.T) {
		_, err := runarchive.Read([]byte(string(data) + lines[1] + "\n"))
		wantArchiveError(t, err, artifact.Corrupt)
	})
	t.Run("no-final", func(t *testing.T) {
		_, err := runarchive.Read(edit(t, lines, "final", nil))
		wantArchiveError(t, err, artifact.Corrupt)
	})
	t.Run("zero-cadence", func(t *testing.T) {
		_, err := runarchive.Read(edit(t, lines, "obs", func(m map[string]any) { m["cadence"] = 0 }))
		wantArchiveError(t, err, artifact.Corrupt)
	})
	t.Run("zero-stride", func(t *testing.T) {
		_, err := runarchive.Read(edit(t, lines, "obs", func(m map[string]any) { m["stride"] = 0 }))
		wantArchiveError(t, err, artifact.Corrupt)
	})
	t.Run("final-past-grid", func(t *testing.T) {
		// A final snapshot far past the retained ring would make the diff
		// engine's resampling grid unbounded.
		_, err := runarchive.Read(edit(t, lines, "final", func(m map[string]any) { m["at"] = 1e12 }))
		wantArchiveError(t, err, artifact.Corrupt)
	})
	t.Run("null-payload", func(t *testing.T) {
		_, err := runarchive.Read(edit(t, lines, "summary", func(m map[string]any) {
			for k := range m {
				delete(m, k)
			}
		}))
		wantArchiveError(t, err, artifact.Corrupt)
	})
	t.Run("unknown-kind", func(t *testing.T) {
		bad := lines[0] + "\n" + `{"kind":"mystery"}` + "\n" + strings.Join(lines[1:], "\n") + "\n"
		_, err := runarchive.Read([]byte(bad))
		wantArchiveError(t, err, artifact.Corrupt)
	})
}

// edit rewrites the first line of the given kind: a nil fn drops the line,
// otherwise fn edits its payload object (an emptied payload is written as
// null).
func edit(t *testing.T, lines []string, kind string, fn func(map[string]any)) []byte {
	t.Helper()
	var out []string
	done := false
	for _, l := range lines {
		var env map[string]any
		if err := json.Unmarshal([]byte(l), &env); err != nil {
			t.Fatal(err)
		}
		if done || env["kind"] != kind {
			out = append(out, l)
			continue
		}
		done = true
		if fn == nil {
			continue
		}
		key := kind
		if kind == "final" {
			key = "snapshot"
		}
		payload := env[key].(map[string]any)
		fn(payload)
		if len(payload) == 0 {
			env[key] = nil
		}
		b, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
	}
	if !done {
		t.Fatalf("no %s line", kind)
	}
	return []byte(strings.Join(out, "\n") + "\n")
}

func TestArchiveWallNanosZeroed(t *testing.T) {
	a := archiveRun(t, 41, false)
	if a.Sched == nil {
		t.Fatal("no sched stats")
	}
	if a.Sched.ElapsedNanos != 0 {
		t.Errorf("ElapsedNanos = %d, want 0 (hardware noise must not reach archives)", a.Sched.ElapsedNanos)
	}
}
