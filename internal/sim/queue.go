package sim

// Queue is a FIFO on a power-of-two ring that doubles when it fills, so a
// pop never moves the items behind it. It backs every Pipe and the models'
// own buffers (VC queues, source queues). The zero value is an empty queue;
// like Pipe it is not safe for concurrent use.
type Queue[T any] struct {
	buf []T
	// head is the slot of the oldest item and n the item count; 32 bits
	// each keep a Pipe, which embeds a Queue, in a small allocation class.
	head, n int32
}

// Len reports how many items the queue holds.
func (q *Queue[T]) Len() int { return int(q.n) }

// Push appends x at the back.
func (q *Queue[T]) Push(x T) { *q.pushSlot() = x }

// pushSlot appends a slot at the back and returns it in place, so a large
// item can be written where it will live instead of passed by value.
func (q *Queue[T]) pushSlot() *T {
	if int(q.n) == len(q.buf) {
		q.grow()
	}
	i := int(q.head+q.n) & (len(q.buf) - 1)
	q.n++
	return &q.buf[i]
}

// grow doubles the ring (from 4 slots when empty), unrolling it so the
// oldest item sits at index 0.
func (q *Queue[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 4
	}
	if size > 1<<30 {
		panic("sim: queue outgrew 2^30 items")
	}
	buf := make([]T, size)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// Pop removes and returns the oldest item. The vacated slot is zeroed so
// the ring holds no reference to it. Popping an empty queue panics.
func (q *Queue[T]) Pop() T {
	if q.n == 0 {
		panic("sim: Pop on an empty queue")
	}
	x := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & int32(len(q.buf)-1)
	q.n--
	return x
}

// Front returns the oldest item in place; it panics on an empty queue.
func (q *Queue[T]) Front() *T {
	if q.n == 0 {
		panic("sim: Front on an empty queue")
	}
	return &q.buf[q.head]
}

// At returns the i-th oldest item in place (0 is the front); it panics
// unless 0 <= i < Len.
func (q *Queue[T]) At(i int) *T {
	if i < 0 || i >= int(q.n) {
		panic("sim: queue index out of range")
	}
	return &q.buf[(int(q.head)+i)&(len(q.buf)-1)]
}
