package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// pipePair is a ring Pipe and the slicePipe oracle built alike, with the
// items each has dropped through its Sever callback.
type pipePair struct {
	ring                       *Pipe[int]
	oracle                     *slicePipe[int]
	ringDropped, oracleDropped []int
}

// corruptInt is the bit-error transform of the differential runs: it maps
// item v to -v-1, so a corrupted item is negative and still names its send.
func corruptInt(v int) int { return -v - 1 }

// newPipePair decodes a pipe shape from three bytes: latency 1–4, width 1–3,
// and kind 0 ideal, 1 NewFaultyPipe, 2 WithBitErrors, 3 both. Each side gets
// its own RNGs on the same seeds, so equal draw order means equal results.
func newPipePair(latency, width, kind byte) *pipePair {
	l, w := Cycle(latency%4)+1, int(width%3)+1
	pp := &pipePair{}
	switch kind % 4 {
	case 0:
		pp.ring, pp.oracle = NewPipe[int](l, w), newSlicePipe[int](l, w)
	case 1, 3:
		pp.ring = NewFaultyPipe[int](l, w, 0.3, NewRNG(3), nil)
		pp.oracle = newFaultySlicePipe[int](l, w, 0.3, NewRNG(3), nil)
	case 2:
		pp.ring, pp.oracle = NewPipe[int](l, w), newSlicePipe[int](l, w)
	}
	if kind%4 >= 2 {
		pp.ring.WithBitErrors(0.25, NewRNG(4), corruptInt)
		pp.oracle.WithBitErrors(0.25, NewRNG(4), corruptInt)
	}
	return pp
}

// catch runs fn and returns what it panicked with, or nil.
func catch(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// ringStats records which ring paths a run crossed.
type ringStats struct {
	grewWrapped bool // grow unrolled a ring whose head was not at slot 0
	wrapped     bool // the occupied span ran past the end of the buffer
	maxLen      int
}

func (s *ringStats) observe(q *Queue[pipeEntry[int]]) {
	if int(q.head+q.n) > len(q.buf) {
		s.wrapped = true
	}
	if q.Len() == len(q.buf) && q.head != 0 {
		s.grewWrapped = true // the next Push unrolls a wrapped ring
	}
	s.maxLen = max(s.maxLen, q.Len())
}

// runPipeDiff drives both pipes of a pair with the operations in ops (bytes
// 0–2 pick the shape, each further byte is one operation) and reports the
// first result, counter, drop or panic on which they differ.
func runPipeDiff(t *testing.T, ops []byte, st *ringStats) {
	t.Helper()
	if len(ops) < 3 {
		return
	}
	pp := newPipePair(ops[0], ops[1], ops[2])
	now, item := Cycle(0), 0
	compare := func(step int, what string, a, b any) {
		t.Helper()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("step %d %s: ring %v, oracle %v", step, what, a, b)
		}
	}
	both := func(step int, what string, ring, oracle func()) {
		t.Helper()
		compare(step, what+" panic", catch(ring), catch(oracle))
	}
	for i, b := range ops[3:] {
		arg := int(b >> 3)
		switch b & 7 {
		case 0, 1: // Send, several times: the bandwidth panic is reachable
			for k := 0; k <= arg%4; k++ {
				item++
				both(i, "Send", func() { pp.ring.Send(now, item) }, func() { pp.oracle.Send(now, item) })
			}
		case 2: // TrySend
			item++
			var rok, ook bool
			both(i, "TrySend", func() { rok = pp.ring.TrySend(now, item) }, func() { ook = pp.oracle.TrySend(now, item) })
			compare(i, "TrySend", rok, ook)
		case 3: // one Recv, at now or a little earlier
			at := now - Cycle(arg%3)
			rv, rok := pp.ring.Recv(at)
			ov, ook := pp.oracle.Recv(at)
			compare(i, "Recv", [2]any{rv, rok}, [2]any{ov, ook})
		case 4: // drain everything ready
			var rs, os []int
			for v, ok := pp.ring.Recv(now); ok; v, ok = pp.ring.Recv(now) {
				rs = append(rs, v)
			}
			for v, ok := pp.oracle.Recv(now); ok; v, ok = pp.oracle.Recv(now) {
				os = append(os, v)
			}
			compare(i, "drain", rs, os)
		case 5, 6: // time moves on; rarely backwards, so Send can panic
			if arg == 31 {
				now--
			} else {
				now += Cycle(arg % 5)
			}
		case 7: // Sever or Restore
			if arg%4 == 0 {
				pp.ring.Restore()
				pp.oracle.Restore()
			} else if arg%4 == 1 {
				pp.ring.Sever(nil)
				pp.oracle.Sever(nil)
			} else {
				pp.ring.Sever(func(v int) { pp.ringDropped = append(pp.ringDropped, v) })
				pp.oracle.Sever(func(v int) { pp.oracleDropped = append(pp.oracleDropped, v) })
			}
		}
		compare(i, "Len", pp.ring.Len(), pp.oracle.Len())
		compare(i, "Empty", pp.ring.Empty(), pp.oracle.Empty())
		compare(i, "Severed", pp.ring.Severed(), pp.oracle.Severed())
		compare(i, "Retransmits", pp.ring.Retransmits(), pp.oracle.Retransmits())
		compare(i, "Corrupted", pp.ring.Corrupted(), pp.oracle.Corrupted())
		compare(i, "dropped", pp.ringDropped, pp.oracleDropped)
		if b&7 == 0 || b&7 == 4 {
			var re, oe []int
			pp.ring.Each(func(v int) { re = append(re, v) })
			pp.oracle.Each(func(v int) { oe = append(oe, v) })
			compare(i, "Each", re, oe)
		}
		if st != nil {
			st.observe(&pp.ring.q)
		}
	}
}

// TestPipeMatchesSliceOracle drives the ring pipe and the old slice pipe
// with seeded random operation sequences, for ideal, faulty, bit-error and
// combined pipes at widths 1–3, and requires identical behaviour. The
// sequences lean on Send so the ring grows and wraps; the test fails if no
// run crossed either path.
func TestPipeMatchesSliceOracle(t *testing.T) {
	var st ringStats
	for kind := byte(0); kind < 4; kind++ {
		for width := byte(0); width < 3; width++ {
			for seed := uint64(1); seed <= 5; seed++ {
				rng := NewRNG(seed*97 + uint64(kind)*7 + uint64(width))
				ops := []byte{byte(rng.Intn(4)), width, kind}
				for k := 0; k < 2000; k++ {
					b := byte(rng.Intn(256))
					if b&7 == 7 && rng.Intn(6) != 0 {
						b &^= 7 // keep links up most of the time
					}
					ops = append(ops, b)
				}
				t.Run(fmt.Sprintf("kind%d/w%d/seed%d", kind, width+1, seed), func(t *testing.T) {
					runPipeDiff(t, ops, &st)
				})
			}
		}
	}
	if !st.wrapped || !st.grewWrapped || st.maxLen <= 8 {
		t.Fatalf("runs never exercised the ring: wrapped=%v grewWrapped=%v maxLen=%d",
			st.wrapped, st.grewWrapped, st.maxLen)
	}
}

// FuzzPipeOps runs the differential driver on arbitrary operation bytes.
func FuzzPipeOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 5, 4, 3})
	f.Add([]byte{3, 2, 1, 24, 24, 24, 24, 13, 4, 15, 2, 3, 4})
	f.Add([]byte{1, 1, 3, 8, 8, 8, 8, 8, 8, 8, 8, 13, 13, 3, 3, 3, 3, 8, 8, 8, 8, 13, 4})
	f.Add([]byte{2, 0, 2, 0, 0, 0, 15, 23, 0, 7, 0, 4, 253, 0, 31, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		runPipeDiff(t, ops, nil)
	})
}
