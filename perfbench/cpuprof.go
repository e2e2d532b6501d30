package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// cpuCategories are the layers CPU self time is attributed to, in the
// order cpu.<name>_frac metrics are reported. Self time goes to the
// innermost function of each sample (after inlining), classified by
// categoryOf; samples in no category count toward the total only.
var cpuCategories = []string{"core", "sim", "baseline", "traffic_stats", "map", "gc_malloc"}

// categoryOf classifies a function by its symbol name.
func categoryOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "frfc/internal/core."):
		return "core"
	case strings.HasPrefix(fn, "frfc/internal/sim."):
		return "sim"
	case strings.HasPrefix(fn, "frfc/internal/vcrouter."), strings.HasPrefix(fn, "frfc/internal/wormhole."),
		strings.HasPrefix(fn, "frfc/internal/packetswitch."), strings.HasPrefix(fn, "frfc/internal/circuit."):
		return "baseline"
	case strings.HasPrefix(fn, "frfc/internal/traffic."), strings.HasPrefix(fn, "frfc/internal/stats."):
		return "traffic_stats"
	case strings.HasPrefix(fn, "runtime.map"), strings.HasPrefix(fn, "internal/runtime/maps."),
		strings.HasPrefix(fn, "runtime.memhash"), strings.HasPrefix(fn, "runtime.aeshash"):
		return "map"
	}
	for _, p := range gcMallocPrefixes {
		if strings.HasPrefix(fn, p) {
			return "gc_malloc"
		}
	}
	return ""
}

// gcMallocPrefixes name the runtime's allocator, garbage collector and
// write barrier.
var gcMallocPrefixes = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice", "runtime.newarray",
	"runtime.nextFreeFast", "runtime.heapSetType", "runtime.heapBits", "runtime.memclrNoHeapPointers",
	"runtime.(*mcache).", "runtime.(*mcentral).", "runtime.(*mheap).", "runtime.(*mspan).",
	"runtime.gc", "runtime.scanobject", "runtime.scanblock", "runtime.scanstack", "runtime.greyobject",
	"runtime.findObject", "runtime.markroot", "runtime.(*gcWork).", "runtime.(*gcBits).",
	"runtime.bgsweep", "runtime.sweepone", "runtime.(*sweepLocked).", "runtime.(*sweepLocker).",
	"runtime.wbBuf", "runtime.bulkBarrier", "runtime.typePointers", "runtime.(*typePointers).",
	"runtime.spanOf", "runtime.deductAssistCredit", "runtime.(*gcControllerState).",
}

// cpuShares decodes a gzipped pprof CPU profile and returns each
// category's share of all sampled CPU time.
func cpuShares(gz []byte) (map[string]float64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1])
		total += v
		if cat := categoryOf(p.leafName(s.locs[0])); cat != "" {
			shares[cat] += v
		}
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// profileData is the part of profile.proto self time needs: samples, the
// innermost function of each location, function names and the string
// table.
type profileData struct {
	samples  []profSample
	locLeaf  map[uint64]uint64 // location id -> innermost function id
	funcName map[uint64]int64  // function id -> string table index
	strtab   []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

func (p *profileData) leafName(loc uint64) string {
	if i, ok := p.funcName[p.locLeaf[loc]]; ok && i >= 0 && int(i) < len(p.strtab) {
		return p.strtab[i]
	}
	return ""
}

func parseProfile(gz []byte) (*profileData, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profileData{locLeaf: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s profSample
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, x := range appendVarints(nil, wire, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location: id = 1, line = 4 (Line: function_id = 1)
			var id, leaf uint64
			first := true
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					if !first {
						return nil // line[0] is the innermost inlined function
					}
					first = false
					return fields(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							leaf = v
						}
						return nil
					})
				}
				return nil
			})
			p.locLeaf[id] = leaf
			return err
		case 5: // Function: id = 1, name = 2
			var id uint64
			var name int64
			err := fields(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string_table
			p.strtab = append(p.strtab, string(b))
		}
		return nil
	})
	return p, err
}

// appendVarints appends one varint field value, or a packed run of them.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
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

// fields walks one protobuf message, calling fn with each field's number,
// wire type, and value (varint and fixed types) or bytes (length-delimited).
func fields(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
