package tseries

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"lfm/internal/artifact"
)

// encodeRuns writes parsed runs back as one concatenated export.
func encodeRuns(t *testing.T, runs []*RunTelemetry) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, rt := range runs {
		if err := rt.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// FuzzReadJSONL: on any input, ReadJSONL returns a typed *artifact.Error or
// runs the invariant checker accepts without panicking and that re-encode
// to bytes which decode and re-encode to the same bytes. Plain `go test`
// runs the seeds: the committed CLI fixtures plus a legacy export.
func FuzzReadJSONL(f *testing.F) {
	paths, err := filepath.Glob("../../cmd/lfm/testdata/*.jsonl")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no committed exports to seed from (%v)", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"type":"meta","meta":{"makespan":1,"series_cap":64}}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		runs, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			var ae *artifact.Error
			if !errors.As(err, &ae) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		for _, rt := range runs {
			_ = rt.CheckInvariants() // a breach is a verdict, not a decode failure; it must only not panic
		}
		once := encodeRuns(t, runs)
		again, err := ReadJSONL(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("re-encoded export does not decode: %v", err)
		}
		if twice := encodeRuns(t, again); !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not stable:\n%s\nvs\n%s", once, twice)
		}
	})
}
