package netsim

// Ring is a growable FIFO ring buffer. It replaces the q = q[1:]
// dequeue idiom, which never releases the backing array's head: under
// that idiom every delivered payload stays reachable until the slice
// happens to reallocate, which for a long-lived mailbox is never. Ring
// reuses one backing array, and PopFront zeroes the vacated slot so
// pointer payloads become collectable the moment they are consumed.
//
// The zero value is an empty, ready-to-use ring. Ring is not
// synchronized; callers guard it with their own locking (the Mailbox
// mutex, or the fleet harness's single-threaded event loop, which uses
// the same type for its join/event queues).
type Ring[T any] struct {
	buf  []T
	head int
	n    int
}

// Len reports the number of queued items.
func (r *Ring[T]) Len() int { return r.n }

// PushBack appends v, growing the backing array by doubling when full.
func (r *Ring[T]) PushBack(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

// PopFront removes and returns the oldest item, zeroing its slot.
func (r *Ring[T]) PopFront() (T, bool) {
	var zero T
	if r.n == 0 {
		return zero, false
	}
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v, true
}

// peek returns the oldest item without removing it.
func (r *Ring[T]) peek() (T, bool) {
	if r.n == 0 {
		var zero T
		return zero, false
	}
	return r.buf[r.head], true
}

func (r *Ring[T]) grow() {
	capacity := 2 * len(r.buf)
	if capacity < 8 {
		capacity = 8
	}
	buf := make([]T, capacity)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf = buf
	r.head = 0
}
