package main

// A minimal reader for the gzipped profile.proto that runtime/pprof
// writes: just enough to walk each CPU sample's stack (leaf first) with
// function names and source files. The module has no dependencies, so
// this stands in for github.com/google/pprof/profile.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// frame is one (possibly inlined) function activation of a sample.
type frame struct {
	fn, file string
}

// cpuSample is one stack, leaf first, with its CPU time.
type cpuSample struct {
	frames []frame
	ns     int64
}

type pbLine struct{ fn uint64 }

type pbFunc struct{ name, file int64 }

// parseCPUProfile decodes a runtime/pprof CPU profile.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		locs    = map[uint64][]pbLine{}
		funcs   = map[uint64]pbFunc{}
		strs    []string
	)
	err = walkFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var lines []pbLine
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					var l pbLine
					err := walkFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							l.fn = v
						}
						return nil
					})
					lines = append(lines, l)
					return err
				}
				return nil
			})
			locs[id] = lines
			return err
		case 5: // Function
			var id uint64
			var fn pbFunc
			err := walkFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					fn.name = int64(v)
				case 4:
					fn.file = int64(v)
				}
				return nil
			})
			funcs[id] = fn
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) < 2 {
			return nil, errors.New("pprof: sample without a cpu value")
		}
		cs := cpuSample{ns: s.values[1]}
		for _, id := range s.locs {
			// A location's lines run from the innermost inlined
			// function out to its caller.
			for _, l := range locs[id] {
				f := funcs[l.fn]
				cs.frames = append(cs.frames, frame{fn: str(f.name), file: str(f.file)})
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// appendVarints handles both encodings of a repeated scalar: one
// unpacked value (b == nil) or a packed run.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// walkFields calls fn for each field of a protobuf message: varints
// arrive as v, length-delimited fields as b. Fixed-width fields are
// skipped (profile.proto uses none that matter here).
func walkFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("pprof: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("pprof: bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("pprof: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("pprof: wire type %d", wire)
		}
	}
	return nil
}
