package netsim

// ringInline is how many slots a Ring holds inline before it first
// allocates. A 128-box deployment never queues more than one packet in
// a mailbox and two on a link (a worker's result and its next request),
// so its channels never allocate a ring.
const ringInline = 2

// Ring is a growable FIFO ring buffer. It replaces the q = q[1:]
// dequeue idiom, which never releases the backing array's head: under
// that idiom every delivered payload stays reachable until the slice
// happens to reallocate, which for a long-lived mailbox is never. Ring
// reuses one backing array, and PopFront zeroes the vacated slot so
// pointer payloads become collectable the moment they are consumed.
//
// The first ringInline items live in the Ring itself; a ring that
// outgrows them moves to a heap array, doubling from then on. Slots are
// reached by index through slots, never through a slice kept into the
// inline array, so a copy of a Ring never reads its original's inline
// slots: a copy made while the items are inline holds its own, and one
// made later shares the heap array, as a copied slice would.
//
// The zero value is an empty, ready-to-use ring. Ring is not
// synchronized; callers guard it with their own locking (the mailbox
// mutex, or the fleet harness's single-threaded event loop, which uses
// the same type for its join/event queues).
type Ring[T any] struct {
	inline [ringInline]T
	buf    []T // the heap slots once the ring outgrew inline, else nil
	head   int
	n      int
}

// Len reports the number of queued items.
func (r *Ring[T]) Len() int { return r.n }

// slots returns the array the items live in.
func (r *Ring[T]) slots() []T {
	if r.buf != nil {
		return r.buf
	}
	return r.inline[:]
}

// PushBack appends v, growing the backing array by doubling when full.
func (r *Ring[T]) PushBack(v T) {
	s := r.slots()
	if r.n == len(s) {
		s = r.grow(s)
	}
	s[(r.head+r.n)%len(s)] = v
	r.n++
}

// PopFront removes and returns the oldest item, zeroing its slot.
func (r *Ring[T]) PopFront() (T, bool) {
	var zero T
	if r.n == 0 {
		return zero, false
	}
	s := r.slots()
	v := s[r.head]
	s[r.head] = zero
	r.head = (r.head + 1) % len(s)
	r.n--
	return v, true
}

// grow moves the items of the full array s to one twice its size (at
// least 8 slots), zeroing s so it keeps nothing reachable, and returns
// the new array.
func (r *Ring[T]) grow(s []T) []T {
	buf := make([]T, max(2*len(s), 8))
	for i := 0; i < r.n; i++ {
		buf[i] = s[(r.head+i)%len(s)]
	}
	clear(s)
	r.buf = buf
	r.head = 0
	return buf
}
