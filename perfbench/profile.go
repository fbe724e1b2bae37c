package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// A CPU profile of the benchmark process is folded into per-layer self
// time: every sample is charged to the module of its innermost
// fm/internal frame, and samples with no fm/internal frame (scheduler,
// GC, the benchmark's own glue) are charged to "runtime".

// internalPrefix is the import-path prefix of the simulator's modules.
const internalPrefix = "fm/internal/"

// runtimeLayer collects samples with no simulator frame on the stack.
const runtimeLayer = "runtime"

// sample is one decoded profile sample: its call stack as function
// names, innermost first (inlined frames expanded), and its CPU time.
type sample struct {
	stack []string
	nanos int64
}

// layerOf names the simulator module a function belongs to, or "" for a
// function outside fm/internal.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// fold charges every sample to the module of its innermost fm/internal
// frame and returns the CPU seconds per layer.
func fold(samples []sample) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range samples {
		layer := runtimeLayer
		for _, fn := range s.stack {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		out[layer] += float64(s.nanos) / 1e9
	}
	return out
}

// shares converts per-layer seconds into percentages of the total.
func shares(self map[string]float64) map[string]float64 {
	var total float64
	for _, v := range self {
		total += v
	}
	out := make(map[string]float64, len(self))
	for k, v := range self {
		if total > 0 {
			out[k] = 100 * v / total
		}
	}
	return out
}

// decodeProfile reads a gzip-compressed pprof CPU profile (the format
// runtime/pprof writes) and returns its samples, valued in CPU
// nanoseconds. It understands exactly the profile.proto fields the fold
// needs: samples, locations with their (inlined) lines, functions, and
// the string table.
func decodeProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples    []rawSample
		valueTypes [][2]int64              // (type, unit) string indexes
		locLines   = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName   = map[uint64]int64{}    // function id -> name string index
		strs       []string
	)
	err = walk(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var t [2]int64
			err := walk(b, func(f int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					t[f-1] = int64(v)
				}
				return nil
			})
			valueTypes = append(valueTypes, t)
			return err
		case 2: // sample
			var s rawSample
			err := walk(b, func(f int, v uint64, pb []byte) error {
				switch f {
				case 1:
					return repeated(v, pb, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return repeated(v, pb, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walk(b, func(f int, v uint64, lb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walk(lb, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walk(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Value the samples by CPU time; a profile without a nanoseconds
	// column falls back to its last column.
	col := len(valueTypes) - 1
	for i, t := range valueTypes {
		if t[1] >= 0 && int(t[1]) < len(strs) && strs[t[1]] == "nanoseconds" {
			col = i
		}
	}
	if col < 0 {
		return nil, errors.New("profile: no sample types")
	}
	out := make([]sample, 0, len(samples))
	for _, rs := range samples {
		if col >= len(rs.values) {
			return nil, errors.New("profile: sample shorter than its sample types")
		}
		s := sample{nanos: rs.values[col]}
		for _, loc := range rs.locs {
			for _, fid := range locLines[loc] {
				if idx := funcName[fid]; idx >= 0 && int(idx) < len(strs) {
					s.stack = append(s.stack, strs[idx])
				}
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// walk iterates the fields of one protobuf message: varint fields call
// fn with their value, length-delimited fields with their bytes (and the
// length as v). Fixed-width fields are skipped.
func walk(b []byte, fn func(field int, v uint64, body []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: truncated bytes field")
			}
			body := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, l, body); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// repeated decodes one occurrence of a repeated varint field, which the
// encoder may write either packed (body set) or one value per field.
func repeated(v uint64, body []byte, add func(uint64)) error {
	if body == nil {
		add(v)
		return nil
	}
	for len(body) > 0 {
		x, n := uvarint(body)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		body = body[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// sortedLayers returns the layer names of a fold in a stable order.
func sortedLayers(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
