package core

// fifo is a first-in first-out queue on one slice. A pop advances the
// head; a push into a full array whose popped prefix is at least half
// of it moves the queue down instead of growing the array, so a queue
// keeps at most twice its largest length.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) len() int { return len(q.items) - q.head }

// front returns the oldest item; the queue must not be empty.
func (q *fifo[T]) front() T { return q.items[q.head] }

func (q *fifo[T]) push(x T) {
	if len(q.items) == cap(q.items) && 2*q.head >= len(q.items) {
		q.items = q.items[:copy(q.items, q.items[q.head:])]
		q.head = 0
	}
	q.items = append(q.items, x)
}

// pop removes and returns the oldest item; the queue must not be empty.
func (q *fifo[T]) pop() T {
	x := q.items[q.head]
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return x
}
