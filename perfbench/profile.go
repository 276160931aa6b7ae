package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the subset of the pprof profile.proto format that
// layer attribution needs (samples, locations, functions, strings), so the
// benchmark reads its own CPU profile with the standard library alone.

// frame is one symbolized stack frame.
type frame struct {
	Func string
	File string
}

// stackSample is one profile sample: its stack, leaf first, with inlined
// frames expanded innermost first, and its sample count.
type stackSample struct {
	Stack []frame
	Count int64
}

// pbuf is a protobuf wire-format reader.
type pbuf struct {
	b []byte
}

var errTruncated = errors.New("profile: truncated protobuf")

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// field reads the next field's number, wire type, and payload: the value
// itself for varints, the bytes for length-delimited fields.
func (p *pbuf) field() (num int, wire int, val uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		val, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, errTruncated
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if uint64(len(p.b)) < n {
				return 0, 0, 0, nil, errTruncated
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, errTruncated
		}
		p.b = p.b[4:]
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", wire)
	}
	return num, wire, val, data, err
}

// ints decodes a repeated integer field that may be packed (wire type 2)
// or not (wire type 0), appending to dst.
func ints(dst []uint64, wire int, val uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, val), nil
	}
	q := pbuf{data}
	for len(q.b) > 0 {
		v, err := q.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// parseProfile decodes a gzip-compressed (or raw) CPU profile as written by
// runtime/pprof and returns its samples with symbolized stacks.
func parseProfile(raw []byte) ([]stackSample, error) {
	if len(raw) > 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type line struct{ fn uint64 }
	type function struct{ name, file uint64 }
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []sample
		locs    = map[uint64][]line{}
		funcs   = map[uint64]function{}
		strs    []string
	)
	p := pbuf{raw}
	for len(p.b) > 0 {
		num, wire, _, data, err := p.field()
		if err != nil {
			return nil, err
		}
		q := pbuf{data}
		switch num {
		case 2: // Sample
			var s sample
			for len(q.b) > 0 {
				n, w, v, d, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = ints(s.locs, w, v, d)
				case 2:
					s.values, err = ints(s.values, w, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var lines []line
			for len(q.b) > 0 {
				n, _, v, d, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4:
					lq := pbuf{d}
					var l line
					for len(lq.b) > 0 {
						ln, _, lv, _, err := lq.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							l.fn = lv
						}
					}
					lines = append(lines, l)
				}
			}
			locs[id] = lines
		case 5: // Function
			var id uint64
			var f function
			for len(q.b) > 0 {
				n, _, v, _, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					f.name = v
				case 4:
					f.file = v
				}
			}
			funcs[id] = f
		case 6: // string_table
			if wire != 2 {
				return nil, errors.New("profile: bad string table entry")
			}
			strs = append(strs, string(data))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ss := stackSample{Count: int64(s.values[0])}
		for _, id := range s.locs {
			for _, l := range locs[id] {
				f := funcs[l.fn]
				ss.Stack = append(ss.Stack, frame{Func: str(f.name), File: str(f.file)})
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// indexFuncs are the wq scheduler functions that maintain the capacity,
// affinity, and dirty-worker indexes (everything in treap.go counts too).
var indexFuncs = map[string]bool{
	"(*workerIndex).insert": true, "(*workerIndex).remove": true,
	"(*schedState).capKey": true, "(*schedState).affKey": true,
	"(*schedState).affinityFor": true, "(*schedState).evictAffinity": true,
	"(*schedState).markDirty": true, "(*schedState).capacityChanged": true,
	"(*schedState).cacheAdded": true, "(*schedState).admit": true,
	"(*schedState).exclude": true,
}

// gcPrefixes match runtime functions whose presence anywhere on a stack
// marks the sample as garbage-collector work: background marking and
// sweeping, mark assists charged to allocating goroutines, and write
// barriers.
var gcPrefixes = []string{
	"runtime.gc", "runtime.GC", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.markroot", "runtime.scan", "runtime.greyobject",
	"runtime.sweepone", "runtime.(*sweepLocked)", "runtime.wbBuf",
	"runtime.(*gcWork)",
}

// layerOf buckets one sample stack into a layer name. Garbage-collector
// work is "go.gc" wherever it was charged. Otherwise the innermost frame
// that belongs to the program names the layer, so runtime and standard
// library helpers (map lookups, allocation, sorting) count toward the
// layer that called them. Stacks with no program frame are "go.runtime".
func layerOf(stack []frame) string {
	for _, f := range stack {
		for _, g := range gcPrefixes {
			if strings.HasPrefix(f.Func, g) {
				return "go.gc"
			}
		}
	}
	for _, f := range stack {
		if l := programLayer(f); l != "" {
			return l
		}
	}
	return "go.runtime"
}

// programLayer names the layer of a program frame, or "" for frames of the
// runtime and standard library.
func programLayer(f frame) string {
	// The benchmark's own code is package main, or lfm/perfbench when
	// linked into its test binary.
	if strings.HasPrefix(f.Func, "main.") || strings.HasPrefix(f.Func, "lfm/perfbench.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(f.Func, "lfm/internal/")
	if !ok {
		if strings.HasPrefix(f.Func, "lfm.") {
			return "core"
		}
		return ""
	}
	pkg, fn, _ := strings.Cut(rest, ".")
	fn, _, _ = strings.Cut(fn, ".func") // closures count as their parent
	switch pkg {
	case "wq":
		if base(f.File) == "treap.go" || indexFuncs[fn] {
			return "wq.index"
		}
		return "wq.master"
	case "sim":
		switch base(f.File) {
		case "fairshare.go":
			return "sim.fairshare"
		case "engine.go", "equeue.go":
			return "sim.engine"
		}
		// The rest of sim (statistics, RNG, resources, backoff) are
		// helpers; they count toward the layer that called them.
		return ""
	case "workloads", "metrics":
		// Arrival processes (called by serve) and histograms (called by
		// obs and serve) are helpers too.
		return ""
	}
	return pkg
}

// bucketSamples sums sample counts per layer.
func bucketSamples(samples []stackSample) map[string]int64 {
	out := map[string]int64{}
	for _, s := range samples {
		out[layerOf(s.Stack)] += s.Count
	}
	return out
}

// base is the last element of a slash-separated path.
func base(path string) string {
	return path[strings.LastIndexByte(path, '/')+1:]
}
