package scenario

import (
	"bytes"
	"errors"
	"testing"

	"lfm/internal/artifact"
	"lfm/internal/sim"
	"lfm/internal/workloads"
)

// seedTraces records two small runs — an open-loop one under a chaos
// schedule (arrivals lines) and a batch one with task dependencies — so
// every trace line kind is in the corpus at a few kilobytes each.
func seedTraces(f *testing.F) [][]byte {
	f.Helper()
	build := map[string]func(seed int64) (*Spec, error){
		"fuzz-open-loop": func(seed int64) (*Spec, error) {
			shape := diurnalShape()
			shape.Window = 10 * sim.Second
			cfg := pool()
			cfg.Faults = profile("stragglers", 10*sim.Second)
			return &Spec{Workload: workloads.Scale(sim.NewRNG(seed), 16, 3), Config: cfg, Serving: shape}, nil
		},
		"fuzz-batch": func(seed int64) (*Spec, error) {
			return &Spec{Workload: workloads.Genomics(sim.NewRNG(seed), 1), Config: pool()}, nil
		},
	}
	var out [][]byte
	for _, name := range []string{"fuzz-open-loop", "fuzz-batch"} {
		s := &Scenario{Name: name, Seed: 1, Build: build[name], Metrics: func(*Result) []Metric { return nil }}
		_, data, err := s.Record(0, nil)
		if err != nil {
			f.Fatalf("record %s: %v", name, err)
		}
		out = append(out, data)
	}
	return out
}

// FuzzDecodeTrace: on any input, decodeTrace returns a typed
// *artifact.Error or a trace that re-encodes to bytes which decode and
// re-encode to the same bytes. Plain `go test` runs the seeds.
func FuzzDecodeTrace(f *testing.F) {
	for _, data := range seedTraces(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := decodeTrace(data)
		if err != nil {
			var ae *artifact.Error
			if !errors.As(err, &ae) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		once, err := d.encode()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := decodeTrace(once)
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		twice, err := again.encode()
		if err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not stable:\n%s\nvs\n%s", once, twice)
		}
	})
}
