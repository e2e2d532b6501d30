package sim

// slicePipe is the delay line as it was before Pipe became a ring: a slice
// whose head is popped by copy-shifting the rest. It is kept only as the
// oracle that pipe_diff_test.go drives side by side with Pipe, so every
// method below keeps the old code and its panics unchanged.
type slicePipe[T any] struct {
	latency Cycle
	width   int

	q []slicePipeEntry[T]

	lastSendCycle Cycle
	sentThisCycle int

	faultRate   float64
	rng         *RNG
	onCorrupt   func()
	retransmits int64

	severed bool
	onDrop  func(T)

	ber       float64
	berRNG    *RNG
	corruptFn func(T) T
	corrupted int64
}

type slicePipeEntry[T any] struct {
	readyAt Cycle
	item    T
}

func newSlicePipe[T any](latency Cycle, width int) *slicePipe[T] {
	if latency < 1 {
		panic("sim: pipe latency must be at least 1 cycle")
	}
	if width < 1 {
		panic("sim: pipe width must be at least 1 item per cycle")
	}
	return &slicePipe[T]{latency: latency, width: width, lastSendCycle: Never}
}

func newFaultySlicePipe[T any](latency Cycle, width int, rate float64, rng *RNG, onCorrupt func()) *slicePipe[T] {
	if rate < 0 || rate >= 1 || rate != rate {
		panic("sim: fault rate must lie in [0, 1)")
	}
	if rate > 0 && rng == nil {
		panic("sim: faulty pipe needs an RNG")
	}
	p := newSlicePipe[T](latency, width)
	p.faultRate = rate
	p.rng = rng
	p.onCorrupt = onCorrupt
	return p
}

func (p *slicePipe[T]) Retransmits() int64 { return p.retransmits }

func (p *slicePipe[T]) WithBitErrors(ber float64, rng *RNG, corrupt func(T) T) *slicePipe[T] {
	if ber < 0 || ber >= 1 || ber != ber {
		panic("sim: bit-error rate must lie in [0, 1)")
	}
	if ber > 0 && (rng == nil || corrupt == nil) {
		panic("sim: bit-error pipe needs an RNG and a corrupting transform")
	}
	p.ber = ber
	p.berRNG = rng
	p.corruptFn = corrupt
	return p
}

func (p *slicePipe[T]) Corrupted() int64 { return p.corrupted }

func (p *slicePipe[T]) CanSend(now Cycle) bool {
	return p.lastSendCycle != now || p.sentThisCycle < p.width
}

func (p *slicePipe[T]) Send(now Cycle, item T) {
	if p.lastSendCycle == now {
		if p.sentThisCycle >= p.width {
			panic("sim: pipe bandwidth exceeded")
		}
		p.sentThisCycle++
	} else {
		if p.lastSendCycle != Never && now < p.lastSendCycle {
			panic("sim: pipe send time went backwards")
		}
		p.lastSendCycle = now
		p.sentThisCycle = 1
	}
	if p.severed {
		if p.onDrop != nil {
			p.onDrop(item)
		}
		return
	}
	if p.ber > 0 && p.berRNG.Bool(p.ber) {
		item = p.corruptFn(item)
		p.corrupted++
	}
	readyAt := now + p.latency
	if p.faultRate > 0 {
		for p.rng.Bool(p.faultRate) {
			readyAt += 2 * p.latency
			p.retransmits++
			if p.onCorrupt != nil {
				p.onCorrupt()
			}
		}
	}
	if n := len(p.q); n > 0 && p.q[n-1].readyAt > readyAt {
		readyAt = p.q[n-1].readyAt
	}
	p.q = append(p.q, slicePipeEntry[T]{readyAt: readyAt, item: item})
}

func (p *slicePipe[T]) TrySend(now Cycle, item T) bool {
	if !p.CanSend(now) {
		return false
	}
	p.Send(now, item)
	return true
}

func (p *slicePipe[T]) Recv(now Cycle) (T, bool) {
	var zero T
	if len(p.q) == 0 || p.q[0].readyAt > now {
		return zero, false
	}
	item := p.q[0].item
	copy(p.q, p.q[1:])
	p.q[len(p.q)-1] = slicePipeEntry[T]{}
	p.q = p.q[:len(p.q)-1]
	return item, true
}

func (p *slicePipe[T]) Len() int { return len(p.q) }

func (p *slicePipe[T]) Empty() bool { return len(p.q) == 0 }

func (p *slicePipe[T]) Each(fn func(T)) {
	for i := range p.q {
		fn(p.q[i].item)
	}
}

func (p *slicePipe[T]) Sever(onDrop func(T)) {
	p.onDrop = onDrop
	if p.severed {
		return
	}
	p.severed = true
	for i := range p.q {
		if onDrop != nil {
			onDrop(p.q[i].item)
		}
		p.q[i] = slicePipeEntry[T]{}
	}
	p.q = p.q[:0]
}

func (p *slicePipe[T]) Restore() {
	p.severed = false
	p.onDrop = nil
}

func (p *slicePipe[T]) Severed() bool { return p.severed }
