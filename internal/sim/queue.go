package sim

// Queue is a FIFO that lets go of what it pops. Re-slicing q[1:] instead
// would keep every popped item reachable from the backing array until the
// array is regrown, and regrow it on every append once the front has
// moved. Queue keeps a head index instead, clears each popped slot, starts
// over at the front when it drains, and slides its items down to make room
// before it grows. Resource queues waiting processes in one; the fleet and
// the cluster queue their requests in them. The zero value is empty.
type Queue[T any] struct {
	items []T
	head  int
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Push adds v at the back.
func (q *Queue[T]) Push(v T) {
	if len(q.items) == cap(q.items) && q.head > 0 {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
}

// Peek returns the front item without removing it. The queue must not be
// empty.
func (q *Queue[T]) Peek() T { return q.items[q.head] }

// Pop removes and returns the front item. The queue must not be empty.
func (q *Queue[T]) Pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}
