package core

// window is a bounded FIFO of keys, the eviction order of the
// protocol's dedup and bookkeeping maps: once it holds limit keys, each
// push evicts the oldest. A full window overwrites in place, so a push
// then allocates nothing. Until then it grows as append grows a slice:
// most windows never fill, so it must not allocate its whole limit up
// front, and coarser growth leaves the many small windows of a
// multi-group process half empty.
type window[K any] struct {
	keys  []K
	head  int // index of the oldest key once the window is full
	limit int
}

func newWindow[K any](limit int) window[K] { return window[K]{limit: limit} }

// push appends k. When the window was full it returns the key that k
// displaced, and true.
func (w *window[K]) push(k K) (evicted K, full bool) {
	if len(w.keys) < w.limit {
		w.keys = append(w.keys, k)
		return evicted, false
	}
	evicted, w.keys[w.head] = w.keys[w.head], k
	w.head = (w.head + 1) % w.limit
	return evicted, true
}
