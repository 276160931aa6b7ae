// Package artifact is the one container codec behind every line-delimited
// artifact the repo writes: the run archive (internal/runarchive), the
// scenario trace (internal/scenario), the obs snapshot stream
// (internal/obs), and the telemetry export (internal/tseries).
//
// Every line is one envelope object {"<tag>":"<kind>","<key>":{...}}: the
// tag names the line's kind and the one payload sits under the kind's key.
// The first line is the header, whose payload carries the schema version;
// readers refuse versions outside [MinVersion, Version] instead of
// guessing. A Format describes one artifact's policy as data (tag key,
// header and footer kinds, accepted versions, whether unknown kinds are
// skipped), and every way an artifact can fail to load is one typed
// *Error. The format packages keep only their payload types, a
// kind→handler table, and their own semantic checks (footer counts,
// digests, dangling references).
package artifact

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Error reasons.
const (
	// BadFormat: the input is not this artifact at all.
	BadFormat = "bad-format"
	// BadVersion: the artifact was written by a schema version this reader
	// does not accept.
	BadVersion = "bad-version"
	// Corrupt: the container parses as the right artifact but its contents
	// are inconsistent (bad JSON, missing payloads, missing footer, count
	// mismatches, dangling references).
	Corrupt = "corrupt"
	// DigestMismatch: a replayed run did not reproduce the recorded
	// outcome digest.
	DigestMismatch = "digest-mismatch"
)

// maxLine bounds one artifact line.
const maxLine = 64 << 20

// Error is the typed error for every way an artifact can fail to load or
// verify, so callers can tell "not this artifact" from "newer schema" from
// "damaged file" without string matching.
type Error struct {
	// Artifact names the container ("archive", "trace", ...).
	Artifact string
	// Reason is one of the reason constants above.
	Reason string
	// Line is the 1-based offending line, 0 when not line-specific.
	Line int
	// Detail is the human-readable specifics.
	Detail string
	// Version is the refused schema version of a BadVersion error.
	Version int
}

// Error implements error.
func (e *Error) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("%s: %s at line %d: %s", e.Artifact, e.Reason, e.Line, e.Detail)
	}
	return fmt.Sprintf("%s: %s: %s", e.Artifact, e.Reason, e.Detail)
}

// Format describes one artifact container.
type Format struct {
	// Name prefixes every error ("archive", "trace", ...).
	Name string
	// Tag is the envelope key holding each line's kind.
	Tag string
	// Header is the kind of the first line. Its payload carries the schema
	// version under VersionKey (absent means 0) and, when Magic is set, a
	// "format" field that must equal Magic.
	Header     string
	Magic      string
	VersionKey string
	// MinVersion and Version bound the accepted schema versions.
	MinVersion, Version int
	// Footer is the kind of the last line; empty when the artifact has none.
	Footer string
	// Keys maps a kind to its payload key where the two differ.
	Keys map[string]string
	// Concat lets the header repeat, each occurrence opening another run.
	Concat bool
	// SkipUnknown skips lines of unknown kind instead of refusing them as
	// corrupt.
	SkipUnknown bool
}

// Errorf builds the format's typed error with no line attached.
func (f *Format) Errorf(reason, format string, args ...any) *Error {
	return &Error{Artifact: f.Name, Reason: reason, Detail: fmt.Sprintf(format, args...)}
}

func (f *Format) key(kind string) string {
	if k, ok := f.Keys[kind]; ok {
		return k
	}
	return kind
}

// Handlers maps each line kind to the function decoding its payload.
type Handlers map[string]func(payload []byte) error

// Into returns a handler decoding each payload into a fresh T for use.
func Into[T any](use func(*T)) func([]byte) error {
	return func(payload []byte) error {
		v := new(T)
		if err := json.Unmarshal(payload, v); err != nil {
			return err
		}
		use(v)
		return nil
	}
}

// Read scans r line by line and hands each line's payload to the handler
// of its kind. Every failure is a typed *Error naming the line: before the
// header is accepted it is BadFormat, after it Corrupt, unless a handler
// returns an *Error of its own.
func (f *Format) Read(r io.Reader, h Handlers) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxLine)
	n, started, ended := 0, false, false
	for sc.Scan() {
		n++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		kind, err := f.line(line, h, started, ended)
		if err != nil {
			var ae *Error
			if !errors.As(err, &ae) {
				reason := Corrupt
				if !started {
					reason = BadFormat
				}
				ae = &Error{Reason: reason, Detail: err.Error()}
			}
			ae.Artifact = f.Name
			if ae.Line == 0 {
				ae.Line = n
			}
			return ae
		}
		started = true
		ended = f.Footer != "" && kind == f.Footer
	}
	if err := sc.Err(); err != nil {
		return &Error{Artifact: f.Name, Reason: Corrupt, Line: n + 1, Detail: err.Error()}
	}
	if !started {
		return f.Errorf(BadFormat, "empty file")
	}
	if f.Footer != "" && !ended {
		return f.Errorf(Corrupt, "missing %s (truncated %s)", f.Footer, f.Name)
	}
	return nil
}

// line decodes one non-blank line, dispatches its payload, and returns
// its kind.
func (f *Format) line(line []byte, h Handlers, started, ended bool) (string, error) {
	var env map[string]json.RawMessage
	if err := json.Unmarshal(line, &env); err != nil {
		return "", fmt.Errorf("not JSONL: %v", err)
	}
	var kind string
	if raw, ok := env[f.Tag]; !ok {
		return "", fmt.Errorf("line has no %q", f.Tag)
	} else if err := json.Unmarshal(raw, &kind); err != nil {
		return "", fmt.Errorf("%q: %v", f.Tag, err)
	}
	switch {
	case ended:
		return "", fmt.Errorf("content after %s", f.Footer)
	case !started && kind != f.Header:
		return "", fmt.Errorf("first line is %q, not a %s %s", kind, f.Name, f.Header)
	case started && kind == f.Header && !f.Concat:
		return "", fmt.Errorf("repeated %s", f.Header)
	}
	handle, ok := h[kind]
	if !ok {
		if f.SkipUnknown {
			return kind, nil
		}
		return "", fmt.Errorf("unknown line kind %q", kind)
	}
	payload := env[f.key(kind)]
	if len(payload) == 0 || string(payload) == "null" {
		return "", fmt.Errorf("%s line without payload", kind)
	}
	if kind == f.Header {
		if err := f.gate(payload); err != nil {
			return "", err
		}
	}
	return kind, handle(payload)
}

// gate checks a header payload's format tag and schema version.
func (f *Format) gate(payload []byte) error {
	var hdr map[string]json.RawMessage
	if err := json.Unmarshal(payload, &hdr); err != nil {
		return err
	}
	if f.Magic != "" {
		var magic string
		if raw, ok := hdr["format"]; ok {
			if err := json.Unmarshal(raw, &magic); err != nil {
				return err
			}
		}
		if magic != f.Magic {
			return f.Errorf(BadFormat, "format %q, want %q", magic, f.Magic)
		}
	}
	v := 0
	if raw, ok := hdr[f.VersionKey]; ok {
		if err := json.Unmarshal(raw, &v); err != nil {
			return err
		}
	}
	if v < f.MinVersion || v > f.Version {
		e := f.Errorf(BadVersion, "%s version %d, reader supports %d..%d", f.Name, v, f.MinVersion, f.Version)
		e.Version = v
		return e
	}
	return nil
}

// Writer emits envelope lines in one format. The first write error sticks:
// later Puts are no-ops and Flush reports it.
type Writer struct {
	f   *Format
	bw  *bufio.Writer
	err error
}

// NewWriter returns a buffered envelope writer over w.
func (f *Format) NewWriter(w io.Writer) *Writer {
	return &Writer{f: f, bw: bufio.NewWriter(w)}
}

// Put writes one line of the given kind with v as its payload. Output is
// byte-identical to encoding/json's Encoder on the envelope struct
// {Tag, <key> *T}: the tag first, then the payload, then a newline. Tags
// and kinds are ASCII identifiers, which %q quotes exactly as JSON does.
func (w *Writer) Put(kind string, v any) {
	if w.err != nil {
		return
	}
	payload, err := json.Marshal(v)
	if err == nil {
		_, err = fmt.Fprintf(w.bw, "{%q:%q,%q:%s}\n", w.f.Tag, kind, w.f.key(kind), payload)
	}
	w.err = err
}

// Flush writes buffered lines through and returns the first error.
func (w *Writer) Flush() error {
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	return w.err
}
