package obs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"lfm/internal/artifact"
)

// encodeStream writes a parsed stream back as JSONL in the bus's line
// order: meta, snapshots, final, health.
func encodeStream(t *testing.T, st *Stream) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := streamFormat.NewWriter(&buf)
	w.Put("meta", &metaLine{
		SchemaVersion: st.SchemaVersion,
		StreamMeta:    st.Meta, Cadence: st.Cadence, RingCap: st.RingCap,
	})
	for _, s := range st.Snapshots {
		w.Put("snapshot", s)
	}
	if st.Final != nil {
		w.Put("final", st.Final)
	}
	if st.Health != nil {
		w.Put("health", st.Health)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadStream: on any input, ReadStream returns a typed *artifact.Error
// or a stream the health rules can analyze and that re-encodes to bytes
// which decode and re-encode to the same bytes. Plain `go test` runs the
// seeds: the committed obs goldens and CLI fixtures plus a legacy stream.
func FuzzReadStream(f *testing.F) {
	var paths []string
	for _, pattern := range []string{"../core/testdata/obs_*.jsonl", "../../cmd/lfm/testdata/*.jsonl"} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		paths = append(paths, m...)
	}
	if len(paths) == 0 {
		f.Fatal("no committed streams to seed from")
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"type":"meta","meta":{"cadence":1,"ring_cap":8}}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := ReadStream(bytes.NewReader(data))
		if err != nil {
			var ae *artifact.Error
			if !errors.As(err, &ae) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		Analyze(st.RunObs(), nil)
		once := encodeStream(t, st)
		st2, err := ReadStream(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("re-encoded stream does not decode: %v", err)
		}
		if twice := encodeStream(t, st2); !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not stable:\n%s\nvs\n%s", once, twice)
		}
	})
}
