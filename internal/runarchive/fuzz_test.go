package runarchive_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"lfm/internal/artifact"
	"lfm/internal/core"
	"lfm/internal/diffobs"
	"lfm/internal/runarchive"
)

// FuzzRead: on any input, Read returns a typed *artifact.Error or an
// archive the diff engine can compare with itself and that re-encodes to
// bytes which decode and re-encode to the same bytes. Plain `go test`
// runs the seeds: every committed baseline plus a minimal archive.
func FuzzRead(f *testing.F) {
	paths, err := filepath.Glob("../../baselines/*.lfma")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no baseline archives to seed from (%v)", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	minimal, err := runarchive.Write(&runarchive.Archive{Summary: &core.RunSummary{}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(minimal)

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := runarchive.Read(data)
		if err != nil {
			var ae *artifact.Error
			if !errors.As(err, &ae) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		diffobs.Diff(a, a, nil)
		once, err := runarchive.Write(a)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		b, err := runarchive.Read(once)
		if err != nil {
			t.Fatalf("re-encoded archive does not decode: %v", err)
		}
		twice, err := runarchive.Write(b)
		if err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not stable:\n%s\nvs\n%s", once, twice)
		}
	})
}
