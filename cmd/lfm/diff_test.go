package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"lfm"
)

// gateScenario keeps the in-process gate tests fast: one small canned
// scenario instead of the full catalog.
const gateScenario = "heavy-tail"

// writeScenarioArchive runs one canned scenario and writes its archive
// (with the scheduler event stream) to dir, returning the path and the
// in-memory archive.
func writeScenarioArchive(t *testing.T, dir, name string, customize func(*lfm.RunConfig)) (string, *lfm.RunArchive) {
	t.Helper()
	s, err := lfm.ScenarioByName(name)
	if err != nil {
		t.Fatal(err)
	}
	_, arch, err := lfm.RunScenarioArchived(s, lfm.ScenarioArchiveOptions{Events: true, Customize: customize})
	if err != nil {
		t.Fatal(err)
	}
	data, err := lfm.WriteRunArchive(arch)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name+".lfma")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, arch
}

var (
	baseOnce sync.Once
	baseArch *lfm.RunArchive
	baseData []byte
	baseErr  error
)

// writeBaseArchive writes the unperturbed gate scenario's archive (with
// the scheduler event stream) to dir and returns its path and the
// in-memory archive. The scenario runs once per test binary; callers must
// not mutate the returned archive.
func writeBaseArchive(t *testing.T, dir string) (string, *lfm.RunArchive) {
	t.Helper()
	baseOnce.Do(func() {
		var path string
		path, baseArch = writeScenarioArchive(t, t.TempDir(), gateScenario, nil)
		baseData, baseErr = os.ReadFile(path)
	})
	if baseErr != nil || baseArch == nil {
		t.Fatalf("base archive unavailable: %v", baseErr)
	}
	path := filepath.Join(dir, gateScenario+".lfma")
	if err := os.WriteFile(path, baseData, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, baseArch
}

// TestGateRoundTrip is the acceptance loop in miniature: refresh a baseline
// into a fresh directory, then gate against it — the unchanged tree must
// pass with zero regressions.
func TestGateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	args := []string{"-baselines", dir, "-scenarios", gateScenario, "-refresh"}
	if err := cmdGate(args, &out, io.Discard); err != nil {
		t.Fatalf("gate -refresh: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, gateScenario+".lfma")); err != nil {
		t.Fatalf("baseline not written: %v", err)
	}
	out.Reset()
	if err := cmdGate([]string{"-baselines", dir, "-scenarios", gateScenario}, &out, io.Discard); err != nil {
		t.Fatalf("gate on unchanged tree failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ok") || strings.Contains(out.String(), "REGRESSED") {
		t.Fatalf("gate output: %s", out.String())
	}
}

// TestGatePerturbFails is the gate's self-test: a seeded perturbation must
// trip the gate, exiting via verdictError with the failure naming the
// regressed metric and its delta.
func TestGatePerturbFails(t *testing.T) {
	dir := t.TempDir()
	writeBaseArchive(t, dir)
	var out bytes.Buffer
	mdPath := filepath.Join(dir, "gate.md")
	jsonPath := filepath.Join(dir, "gate.json")
	err := cmdGate([]string{
		"-baselines", dir, "-scenarios", gateScenario,
		"-perturb", "workers-halved", "-md", mdPath, "-json", jsonPath,
	}, &out, io.Discard)
	var reg verdictError
	if !errors.As(err, &reg) {
		t.Fatalf("perturbed gate returned %v, want verdictError", err)
	}
	if !strings.Contains(err.Error(), "makespan_s") || !strings.Contains(err.Error(), "+") {
		t.Fatalf("failure does not name the metric and delta: %v", err)
	}
	md, readErr := os.ReadFile(mdPath)
	if readErr != nil {
		t.Fatal(readErr)
	}
	if !strings.Contains(string(md), "regressed") || !strings.Contains(string(md), gateScenario) {
		t.Fatalf("markdown summary missing verdict table:\n%s", md)
	}
	if _, err := os.ReadFile(jsonPath); err != nil {
		t.Fatalf("gate JSON artifact not written: %v", err)
	}
}

// TestGateRefusesPerturbedRefresh: committing perturbed baselines would
// poison every future gate run, so the flag combination is rejected.
func TestGateRefusesPerturbedRefresh(t *testing.T) {
	var out bytes.Buffer
	err := cmdGate([]string{"-baselines", t.TempDir(), "-perturb", "workers-halved", "-refresh"}, &out, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "perturb") {
		t.Fatalf("gate -perturb -refresh = %v, want refusal", err)
	}
}

// TestCompareRegression runs compare end-to-end over archive files: a run
// against its perturbed twin must regress (exit-3 error), and against
// itself must not.
func TestCompareRegression(t *testing.T) {
	dir := t.TempDir()
	basePath, _ := writeBaseArchive(t, dir)

	var out bytes.Buffer
	if err := cmdCompare([]string{basePath, basePath}, &out, io.Discard); err != nil {
		t.Fatalf("self-compare: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "0 improved, 0 regressed") {
		t.Fatalf("self-compare output: %s", out.String())
	}

	perturb, err := lfm.DiffPerturbation("workers-halved")
	if err != nil {
		t.Fatal(err)
	}
	candDir := filepath.Join(dir, "cand")
	if err := os.Mkdir(candDir, 0o755); err != nil {
		t.Fatal(err)
	}
	candPath, _ := writeScenarioArchive(t, candDir, gateScenario, perturb)
	out.Reset()
	err = cmdCompare([]string{basePath, candPath}, &out, io.Discard)
	var reg verdictError
	if !errors.As(err, &reg) {
		t.Fatalf("perturbed compare returned %v, want verdictError\n%s", err, out.String())
	}
	if !strings.Contains(err.Error(), "makespan_s") {
		t.Fatalf("compare failure does not name the metric: %v", err)
	}
}

// TestExplainPinpointsDivergence covers the acceptance criterion verbatim:
// two same-seed archives, one with a tampered scheduler event stream, and
// `explain` must bisect to exactly that event index.
func TestExplainPinpointsDivergence(t *testing.T) {
	// The candidate is a fresh run, so two independent same-seed runs are
	// compared, not one archive with itself.
	_, base := writeBaseArchive(t, t.TempDir())
	_, cand := writeScenarioArchive(t, t.TempDir(), gateScenario, nil)
	if len(cand.Events) < 10 {
		t.Fatalf("archive has only %d events", len(cand.Events))
	}

	// Identical twins: nothing to explain, exit 0.
	var out bytes.Buffer
	if err := explain(&out, base, cand); err != nil {
		t.Fatalf("identical twins: %v", err)
	}
	if !strings.Contains(out.String(), "identical") {
		t.Fatalf("identical-twins output: %s", out.String())
	}

	// Tamper one mid-stream event (and the digest, as a real determinism
	// break would differ): explain must name that exact index.
	idx := len(cand.Events) / 2
	cand.Events[idx].Worker++
	cand.Header.Digest = "sha256:tampered"
	out.Reset()
	err := explain(&out, base, cand)
	var reg verdictError
	if !errors.As(err, &reg) {
		t.Fatalf("tampered twins returned %v, want verdictError", err)
	}
	d := lfm.BisectEventStreams(base.Events, cand.Events)
	if d == nil || d.Index != idx {
		t.Fatalf("bisection found %+v, want index %d", d, idx)
	}
	if !strings.Contains(out.String(), "first divergence") {
		t.Fatalf("explain output lacks the divergence line: %s", out.String())
	}

	// A digest mismatch with no recorded events is an operational error
	// pointing at re-archiving, not a silent pass.
	cand.Events = nil
	out.Reset()
	err = explain(&out, base, cand)
	if err == nil || errors.As(err, &reg) || !strings.Contains(err.Error(), "re-archive") {
		t.Fatalf("event-less explain = %v, want re-archive hint", err)
	}
}
