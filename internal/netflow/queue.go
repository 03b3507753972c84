package netflow

import (
	"context"
	"sync"
	"sync/atomic"
)

// DropPolicy selects what a full Queue does with an incoming batch.
type DropPolicy int

const (
	// Block applies backpressure: Put waits until space frees up (bounded
	// memory, no loss; the producer — usually a collector read loop — slows
	// to the consumer's pace, and the kernel socket buffer absorbs or drops
	// the overflow, which is where loss belongs under sustained overload).
	Block DropPolicy = iota
	// DropNewest discards the incoming batch when the queue is full and
	// counts it; the producer never stalls (ingest keeps its counters and
	// labels fresh while a stuck consumer is restarted).
	DropNewest
	// DropOldest evicts the oldest queued batch to admit the new one, so
	// the consumer resumes with the freshest data after a stall.
	DropOldest
)

// String names the policy for flags and logs.
func (p DropPolicy) String() string {
	switch p {
	case Block:
		return "block"
	case DropNewest:
		return "drop-newest"
	case DropOldest:
		return "drop-oldest"
	}
	return "unknown"
}

// ParseDropPolicy maps a flag string to a policy.
func ParseDropPolicy(s string) (DropPolicy, bool) {
	switch s {
	case "block":
		return Block, true
	case "drop-newest":
		return DropNewest, true
	case "drop-oldest":
		return DropOldest, true
	}
	return Block, false
}

// QueueStats counts queue activity; all fields are atomic and safe to read
// while the queue runs (the obs layer scrapes them as function metrics).
type QueueStats struct {
	BatchesIn      atomic.Uint64 // batches accepted (including later-evicted)
	BatchesOut     atomic.Uint64 // batches handed to the consumer
	RecordsIn      atomic.Uint64
	RecordsOut     atomic.Uint64
	DroppedBatches atomic.Uint64 // batches lost to the drop policy
	DroppedRecords atomic.Uint64
	BlockedPuts    atomic.Uint64 // Put calls that had to wait (Block policy)
}

// Queue is the bounded hand-off between the collector read loop and the
// balancing/training stage: a FIFO of record batches with an explicit
// capacity and a counted overflow policy. Before it existed the collector
// called straight into the balancer under a mutex — a stuck consumer
// propagated backpressure invisibly and unboundedly; the queue makes the
// boundary explicit, observable, and survivable.
//
// Put copies each batch (collectors reuse their batch slices), so admitted
// memory is bounded by capacity × batch size. One consumer; any number of
// producers.
type Queue struct {
	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpty chan struct{} // closed/remade signal for waiting consumers
	buf      [][]Record
	head     int
	n        int
	policy   DropPolicy
	closed   bool

	Stats QueueStats
}

// NewQueue builds a queue holding up to capacity batches (minimum 1).
func NewQueue(capacity int, policy DropPolicy) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	q := &Queue{
		buf:      make([][]Record, capacity),
		policy:   policy,
		notEmpty: make(chan struct{}),
	}
	q.notFull = sync.NewCond(&q.mu)
	return q
}

// Len returns the number of queued batches.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// Cap returns the queue capacity in batches.
func (q *Queue) Cap() int { return len(q.buf) }

// Put offers one batch. It returns false when the batch was dropped (full
// queue under DropNewest) or the queue is closed; under Block it waits for
// space. The caller keeps ownership of batch — the queue stores a copy.
func (q *Queue) Put(batch []Record) bool {
	if len(batch) == 0 {
		return true
	}
	q.mu.Lock()
	for q.n == len(q.buf) && !q.closed {
		switch q.policy {
		case DropNewest:
			q.Stats.DroppedBatches.Add(1)
			q.Stats.DroppedRecords.Add(uint64(len(batch)))
			q.mu.Unlock()
			return false
		case DropOldest:
			old := q.buf[q.head]
			q.buf[q.head] = nil
			q.head = (q.head + 1) % len(q.buf)
			q.n--
			q.Stats.DroppedBatches.Add(1)
			q.Stats.DroppedRecords.Add(uint64(len(old)))
		default: // Block
			q.Stats.BlockedPuts.Add(1)
			q.notFull.Wait()
		}
	}
	if q.closed {
		q.mu.Unlock()
		return false
	}
	cp := make([]Record, len(batch))
	copy(cp, batch)
	q.buf[(q.head+q.n)%len(q.buf)] = cp
	q.n++
	q.Stats.BatchesIn.Add(1)
	q.Stats.RecordsIn.Add(uint64(len(cp)))
	signal := q.notEmpty
	q.notEmpty = make(chan struct{})
	q.mu.Unlock()
	close(signal)
	return true
}

// Get removes and returns the oldest batch, waiting until one is available,
// the queue closes (nil, false once drained), or ctx is done.
func (q *Queue) Get(ctx context.Context) ([]Record, bool) {
	for {
		q.mu.Lock()
		if q.n > 0 {
			b := q.buf[q.head]
			q.buf[q.head] = nil
			q.head = (q.head + 1) % len(q.buf)
			q.n--
			q.Stats.BatchesOut.Add(1)
			q.Stats.RecordsOut.Add(uint64(len(b)))
			q.notFull.Signal()
			q.mu.Unlock()
			return b, true
		}
		if q.closed {
			q.mu.Unlock()
			return nil, false
		}
		wait := q.notEmpty
		q.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, false
		case <-wait:
		}
	}
}

// Close wakes all waiters; queued batches remain retrievable via Get until
// drained. Put after Close returns false.
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	signal := q.notEmpty
	q.notEmpty = make(chan struct{})
	q.notFull.Broadcast()
	q.mu.Unlock()
	close(signal)
}
