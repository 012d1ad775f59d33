package backend

import (
	"crypto/sha256"
	"hash"
	"sync"
	"time"
)

// taskKey identifies one task globally. It replaces the old
// fmt.Sprintf("%d/%d") string lease key: an integer pair hashes and
// compares without allocating on the dispatch path.
type taskKey struct {
	job  int
	task int
}

// mix64 is a SplitMix64-style finalizer: cheap, well-distributed bits
// for shard selection.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func (k taskKey) hash() uint64 {
	return mix64(uint64(k.job)*0x9e3779b97f4a7c15 + uint64(k.task))
}

// shard is one stripe of the scheduler. Tasks are pinned to a shard by
// taskKey hash, so every per-task mutation (dispatch, vote, lease
// bookkeeping) takes only that stripe's lock; worker connections
// hitting different stripes proceed in parallel.
type shard struct {
	mu     sync.Mutex
	ready  readyQueue // dispatchable slots, FIFO
	leases leaseHeap  // outstanding leases by deadline, lazily invalidated
	active map[taskKey]*taskState
	// mac is HMAC-SHA256 keyed once with the credential secret (nil when
	// CredOff) and macSum the scratch a verify sums into: mu already
	// serialises every issue and verify of this stripe's tasks.
	mac    hash.Hash
	macSum [sha256.Size]byte
}

// readyQueue is a ring-buffer FIFO of dispatchable task slots. Pops and
// pushes are O(1); the old slice-based queue copied the whole backlog on
// every head removal, which dominated dispatch cost at 10k+ pending.
// Capacity is kept a power of two so the index wraps with a mask.
type readyQueue struct {
	buf  []*taskState
	head int
	n    int
}

func (q *readyQueue) len() int { return q.n }

func (q *readyQueue) grow() {
	c := len(q.buf) * 2
	if c == 0 {
		c = 8
	}
	nb := make([]*taskState, c)
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = nb, 0
}

func (q *readyQueue) pushBack(ts *taskState) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = ts
	q.n++
}

func (q *readyQueue) pushFront(ts *taskState) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = ts
	q.n++
}

func (q *readyQueue) popFront() *taskState {
	ts := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return ts
}

// leaseEntry records one granted lease for expiry tracking. Entries are
// never removed eagerly: an entry is live only while the task is still
// active and the node's recorded deadline equals at, so results and
// re-leases invalidate old entries for free.
type leaseEntry struct {
	at   time.Time
	key  taskKey
	node uint64
}

// leaseHeap is a binary min-heap on deadline. Reclamation pops only
// actually-expired entries (O(log n) each) instead of sweeping the
// whole active-task map per idle request.
type leaseHeap []leaseEntry

func (h leaseHeap) len() int { return len(h) }

func (h leaseHeap) peek() (leaseEntry, bool) {
	if len(h) == 0 {
		return leaseEntry{}, false
	}
	return h[0], true
}

func (h *leaseHeap) push(e leaseEntry) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s[i].at.Before(s[p].at) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *leaseHeap) popMin() leaseEntry {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = leaseEntry{}
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r, min := 2*i+1, 2*i+2, i
		if l < n && s[l].at.Before(s[min].at) {
			min = l
		}
		if r < n && s[r].at.Before(s[min].at) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}
