package sim

import "testing"

// benchSink keeps received items live so the compiler cannot drop a Recv.
var benchSink int

// BenchmarkPipeIdlePoll polls 320 pipes with nothing ready once each per
// op: the receive side of an 8×8 mesh cycle (64 nodes × ~5 input pipes)
// in which nothing arrives, which is most of what a network does. "empty"
// pipes hold nothing; "inflight" pipes hold an item not yet due, as a
// loaded link with a multi-cycle latency mostly does.
func BenchmarkPipeIdlePoll(b *testing.B) {
	for _, tc := range []struct {
		name     string
		inflight bool
	}{{"empty", false}, {"inflight", true}} {
		b.Run(tc.name, func(b *testing.B) {
			pipes := make([]*Pipe[int], 320)
			for i := range pipes {
				// The latency keeps a sent item in flight for the
				// whole run.
				pipes[i] = NewPipe[int](1<<40, 1)
				if tc.inflight {
					pipes[i].Send(0, i)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now := Cycle(i)
				for _, p := range pipes {
					for v, ok := p.Recv(now); ok; v, ok = p.Recv(now) {
						benchSink += v
					}
				}
			}
		})
	}
}

// BenchmarkPipeSteady sends width items and drains what is ready, once per
// op (one cycle), on a 4-cycle pipe kept full: the loaded-link case.
func BenchmarkPipeSteady(b *testing.B) {
	for _, tc := range []struct {
		name  string
		width int
	}{{"w1", 1}, {"w2", 2}} {
		width := tc.width
		b.Run(tc.name, func(b *testing.B) {
			p := NewPipe[int](4, width)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now := Cycle(i)
				for k := 0; k < width; k++ {
					p.Send(now, k)
				}
				for v, ok := p.Recv(now); ok; v, ok = p.Recv(now) {
					benchSink += v
				}
			}
		})
	}
}

// BenchmarkPipeFaultySend is BenchmarkPipeSteady at width 1 on a pipe with
// link-level fault replay armed at 5%, so every Send draws from the RNG and
// some replay go-back-N.
func BenchmarkPipeFaultySend(b *testing.B) {
	p := NewFaultyPipe[int](4, 1, 0.05, NewRNG(1), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := Cycle(i)
		p.Send(now, i)
		for v, ok := p.Recv(now); ok; v, ok = p.Recv(now) {
			benchSink += v
		}
	}
}
