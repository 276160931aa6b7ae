package artifact

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

var (
	// closed is a footer-terminated, versioned container like the archive.
	closed = &Format{
		Name: "test", Tag: "kind", Header: "header", Magic: "test-format",
		VersionKey: "version", MinVersion: 1, Version: 2, Footer: "footer",
		Keys: map[string]string{"final": "item"},
	}
	// open is a growable stream of concatenated runs like the telemetry
	// export.
	open = &Format{
		Name: "stream", Tag: "type", Header: "meta",
		VersionKey: "schema_version", Version: 1,
		Concat: true, SkipUnknown: true,
	}
)

type item struct {
	N int    `json:"n"`
	S string `json:"s,omitempty"`
}

// TestPutMatchesEnvelopeStruct pins the writer to the bytes the per-format
// envelope structs produced through encoding/json, HTML escaping included.
func TestPutMatchesEnvelopeStruct(t *testing.T) {
	var got bytes.Buffer
	w := closed.NewWriter(&got)
	w.Put("item", &item{N: 1, S: "<a&b>"})
	w.Put("final", &item{N: 2})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	type env struct {
		Kind string `json:"kind"`
		Item *item  `json:"item,omitempty"`
	}
	for _, e := range []env{{"item", &item{N: 1, S: "<a&b>"}}, {"final", &item{N: 2}}} {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	if got.String() != want.String() {
		t.Fatalf("Put wrote\n%s\nwant\n%s", got.String(), want.String())
	}
}

func TestPutStickyError(t *testing.T) {
	w := closed.NewWriter(&bytes.Buffer{})
	w.Put("item", func() {}) // not encodable
	w.Put("item", &item{N: 1})
	if err := w.Flush(); err == nil {
		t.Fatal("unencodable payload did not surface from Flush")
	}
}

func TestReadDispatch(t *testing.T) {
	in := `{"kind":"header","header":{"format":"test-format","version":2}}

{"kind":"item","item":{"n":1}}
{"kind":"final","item":{"n":2}}
{"kind":"footer","footer":{}}
`
	var items []int
	err := closed.Read(strings.NewReader(in), Handlers{
		"header": Into(func(*item) {}),
		"item":   Into(func(i *item) { items = append(items, i.N) }),
		"final":  Into(func(i *item) { items = append(items, -i.N) }),
		"footer": Into(func(*item) {}),
	})
	if err != nil || len(items) != 2 || items[0] != 1 || items[1] != -2 {
		t.Fatalf("items %v, err %v", items, err)
	}

	// Concatenated runs, an absent version (0), and a skipped unknown type.
	in = `{"type":"meta","meta":{}}
{"type":"later","later":{"n":9}}
{"type":"meta","meta":{"schema_version":1}}
`
	runs := 0
	if err := open.Read(strings.NewReader(in), Handlers{"meta": Into(func(*item) { runs++ })}); err != nil || runs != 2 {
		t.Fatalf("runs %d, err %v", runs, err)
	}
}

func TestReadErrors(t *testing.T) {
	hdr := `{"kind":"header","header":{"format":"test-format","version":1}}` + "\n"
	foot := `{"kind":"footer","footer":{}}` + "\n"
	h := Handlers{
		"header": Into(func(*item) {}),
		"item":   Into(func(*item) {}),
		"footer": Into(func(*item) {}),
	}
	cases := []struct {
		name, in, reason string
		line, version    int
	}{
		{"empty", " \n\n", BadFormat, 0, 0},
		{"not json", "hello\n", BadFormat, 1, 0},
		{"no tag", `{"header":{}}` + "\n", BadFormat, 1, 0},
		{"not a header first", `{"kind":"item","item":{"n":1}}` + "\n", BadFormat, 1, 0},
		{"wrong magic", `{"kind":"header","header":{"format":"other","version":1}}` + "\n", BadFormat, 1, 0},
		{"bad header payload", `{"kind":"header","header":{"format":"test-format","version":"one"}}` + "\n", BadFormat, 1, 0},
		{"too old", `{"kind":"header","header":{"format":"test-format"}}` + "\n", BadVersion, 1, 0},
		{"too new", `{"kind":"header","header":{"format":"test-format","version":99}}` + "\n", BadVersion, 1, 99},
		{"garbage after header", hdr + "{{\n" + foot, Corrupt, 2, 0},
		{"missing payload", hdr + `{"kind":"item"}` + "\n" + foot, Corrupt, 2, 0},
		{"null payload", hdr + `{"kind":"item","item":null}` + "\n" + foot, Corrupt, 2, 0},
		{"bad payload", hdr + `{"kind":"item","item":{"n":"x"}}` + "\n" + foot, Corrupt, 2, 0},
		{"unknown kind", hdr + `{"kind":"mystery","mystery":{}}` + "\n" + foot, Corrupt, 2, 0},
		{"repeated header", hdr + hdr + foot, Corrupt, 2, 0},
		{"after footer", hdr + foot + `{"kind":"item","item":{}}` + "\n", Corrupt, 3, 0},
		{"missing footer", hdr, Corrupt, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := closed.Read(strings.NewReader(c.in), h)
			var ae *Error
			if !errors.As(err, &ae) {
				t.Fatalf("got %v, want *Error", err)
			}
			if ae.Artifact != "test" || ae.Reason != c.reason || ae.Line != c.line || ae.Version != c.version {
				t.Fatalf("got %+v, want reason %s at line %d (version %d)", ae, c.reason, c.line, c.version)
			}
		})
	}
}
