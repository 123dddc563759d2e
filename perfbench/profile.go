package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// hostModules are the packages whose CPU self time the traced run
// reports as host.<module>_s. Leaf frames in other repro packages, and
// in the benchmark itself, count as host.other_s.
var hostModules = []string{"tensor", "nn", "train", "dataset", "models", "core",
	"codecs", "planner", "accel", "noc", "cluster", "runtime"}

// moduleSelfTime reads a runtime/pprof CPU profile and returns CPU
// seconds per module, keyed by hostModules names plus "other". A sample
// is charged to the package of its leaf frame; a leaf in the standard
// library outside the runtime (math, sort, sync, ...) is charged to the
// nearest repro caller, so library helpers count toward the module that
// called them. Runtime frames (GC, malloc, scheduling, memmove) count as
// "runtime".
func moduleSelfTime(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]float64{"other": 0}
	for _, m := range hostModules {
		out[m] = 0
	}
	for _, s := range p.samples {
		out[p.module(s.locs)] += float64(s.nanos) / 1e9
	}
	return out, nil
}

// module classifies one sample's stack, leaf first.
func (p *profile) module(locs []uint64) string {
	for _, id := range locs {
		for _, fn := range p.locFuncs[id] {
			pkg := packageOf(p.strings[p.funcNames[fn]])
			switch {
			case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime"):
				return "runtime"
			case strings.HasPrefix(pkg, "repro/internal/"):
				name := strings.TrimPrefix(pkg, "repro/internal/")
				for _, m := range hostModules {
					if m == name {
						return m
					}
				}
				return "other"
			case strings.HasPrefix(pkg, "repro/"):
				return "other"
			}
		}
	}
	return "other"
}

// packageOf extracts the import path from a Go symbol such as
// "repro/internal/tensor.(*Tensor).MatMul" or "runtime.mallocgc".
func packageOf(sym string) string {
	head := sym
	if i := strings.IndexByte(head, '['); i >= 0 { // generic type arguments may hold paths
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	if dot := strings.IndexByte(head[slash+1:], '.'); dot >= 0 {
		return head[:slash+1+dot]
	}
	return head
}

// profile is the part of profile.proto the grouping needs.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames map[uint64]int64    // function id -> string table index
	strings   []string
	valueIdx  int // sample value holding CPU nanoseconds
}

type sample struct {
	locs  []uint64
	nanos int64
}

// Field numbers from github.com/google/pprof/proto/profile.proto.
const (
	profSampleType = 1
	profSample     = 2
	profLocation   = 4
	profFunction   = 5
	profString     = 6
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	var rawSamples [][]byte
	var sampleTypes [][]byte
	err := eachField(b, func(field int, v uint64, data []byte) error {
		switch field {
		case profSampleType:
			sampleTypes = append(sampleTypes, data)
		case profSample:
			rawSamples = append(rawSamples, data)
		case profLocation:
			var id uint64
			var funcs []uint64
			if err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(d, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							funcs = append(funcs, lv)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locFuncs[id] = funcs
		case profFunction:
			var id uint64
			var name int64
			if err := eachField(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcNames[id] = name
		case profString:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// A CPU profile's sample types are (samples, count) and (cpu, nanoseconds).
	p.valueIdx = -1
	for i, st := range sampleTypes {
		var typ uint64
		if err := eachField(st, func(f int, v uint64, _ []byte) error {
			if f == 1 {
				typ = v
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if typ < uint64(len(p.strings)) && p.strings[typ] == "cpu" {
			p.valueIdx = i
		}
	}
	if p.valueIdx < 0 {
		return nil, fmt.Errorf("no cpu sample type")
	}
	for _, rs := range rawSamples {
		var s sample
		var values []uint64
		if err := eachField(rs, func(f int, v uint64, d []byte) error {
			var err error
			switch f {
			case 1:
				s.locs, err = appendVarints(s.locs, v, d)
			case 2:
				values, err = appendVarints(values, v, d)
			}
			return err
		}); err != nil {
			return nil, err
		}
		if p.valueIdx < len(values) {
			s.nanos = int64(values[p.valueIdx])
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with the field number
// and either the varint value or the length-delimited payload (d is nil
// for varints).
func eachField(b []byte, fn func(field int, v uint64, d []byte) error) error {
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad tag")
		}
		b = b[n:]
		field, wire := int(tag>>3), tag&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length")
			}
			d := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, d); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("wire type %d", wire)
		}
	}
	return nil
}

// appendVarints handles a repeated integer field in either encoding:
// one unpacked varint v (d == nil) or a packed run in d.
func appendVarints(dst []uint64, v uint64, d []byte) ([]uint64, error) {
	if d == nil {
		return append(dst, v), nil
	}
	for len(d) > 0 {
		x, n := binary.Uvarint(d)
		if n <= 0 {
			return nil, fmt.Errorf("bad packed varint")
		}
		dst = append(dst, x)
		d = d[n:]
	}
	return dst, nil
}
