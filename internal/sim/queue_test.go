package sim

import "testing"

// TestQueueMatchesSlice pushes and pops at random against a plain slice,
// through growth and wrap-around, and checks order, Len, At and Front.
func TestQueueMatchesSlice(t *testing.T) {
	rng := NewRNG(9)
	var q Queue[int]
	var model []int
	next, wrapped := 0, false
	for step := 0; step < 20000; step++ {
		// Push-biased in the first half so the ring grows, pop-biased
		// after so it drains back through wrapped states.
		push := rng.Intn(10) < 6
		if step >= 10000 {
			push = rng.Intn(10) < 4
		}
		if push || len(model) == 0 {
			q.Push(next)
			model = append(model, next)
			next++
		} else {
			if got := q.Pop(); got != model[0] {
				t.Fatalf("step %d: Pop = %d, want %d", step, got, model[0])
			}
			model = model[1:]
		}
		if q.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(model))
		}
		if len(model) > 0 {
			if *q.Front() != model[0] {
				t.Fatalf("step %d: Front = %d, want %d", step, *q.Front(), model[0])
			}
			i := rng.Intn(len(model))
			if *q.At(i) != model[i] {
				t.Fatalf("step %d: At(%d) = %d, want %d", step, i, *q.At(i), model[i])
			}
		}
		if len(q.buf)&(len(q.buf)-1) != 0 {
			t.Fatalf("step %d: ring of %d slots is not a power of two", step, len(q.buf))
		}
		wrapped = wrapped || int(q.head+q.n) > len(q.buf)
	}
	if !wrapped {
		t.Fatal("the run never wrapped the ring")
	}
}

// TestQueueAtWritesInPlace: At and Front hand out the stored item, so a
// model can update a queued entry without popping it.
func TestQueueAtWritesInPlace(t *testing.T) {
	var q Queue[[2]int]
	for i := 0; i < 5; i++ {
		q.Push([2]int{i, 0})
	}
	q.At(3)[1] = 7
	q.Front()[1] = 1
	for i := 0; i < 5; i++ {
		want := 0
		switch i {
		case 0:
			want = 1
		case 3:
			want = 7
		}
		if got := q.Pop(); got != [2]int{i, want} {
			t.Fatalf("item %d = %v, want %v", i, got, [2]int{i, want})
		}
	}
}

// TestQueuePopReleasesSlot: a popped slot no longer references its item, so
// a long-lived ring does not keep dead packets reachable.
func TestQueuePopReleasesSlot(t *testing.T) {
	var q Queue[*int]
	x := 1
	q.Push(&x)
	q.Push(&x)
	q.Pop()
	for i, p := range q.buf {
		if p != nil && i != int(q.head) {
			t.Fatalf("slot %d still holds a popped item", i)
		}
	}
}

// TestQueuePanicsOutOfRange: popping or indexing past the items panics.
func TestQueuePanicsOutOfRange(t *testing.T) {
	one := func() *Queue[int] {
		var q Queue[int]
		q.Push(1)
		return &q
	}
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"At(-1)", func() { one().At(-1) }},
		{"At(Len)", func() { one().At(1) }},
		{"Pop on empty", func() { q := one(); q.Pop(); q.Pop() }},
		{"Front on empty", func() { new(Queue[int]).Front() }},
	} {
		if catch(tc.fn) == nil {
			t.Errorf("%s did not panic", tc.name)
		}
	}
}
