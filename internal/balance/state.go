package balance

import (
	"fmt"
	"math/rand/v2"
)

// State is a serializable snapshot of a Balancer: the sampler RNG state,
// the in-progress minute bin, and the accounting. Restoring a snapshot into
// a balancer built with the same accessor functions resumes the stream
// bit-for-bit — the kept sample of every future bin is identical to an
// uninterrupted run, which is what makes crash/restart recovery of the
// training pipeline exact rather than approximate.
//
// The buffered bin rides along because bins flush on minute advance: at any
// point mid-stream the balancer holds the records of the newest minute, and
// dropping them at a crash would silently thin that bin.
type State[T any] struct {
	// RNG is the PCG state via its binary marshaling.
	RNG []byte
	// Cur is the minute bin currently buffered.
	Cur int64
	// Buf holds the records of the in-progress bin.
	Buf []T
	// Stats is the accounting snapshot.
	Stats Stats
}

// Checkpoint captures the balancer's full state. The balancer must be
// quiescent (no concurrent Add/AddBatch/Flush).
func (b *Balancer[T]) Checkpoint() (*State[T], error) {
	rng, err := b.src.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("balance: marshaling rng: %w", err)
	}
	buf := make([]T, len(b.buf))
	copy(buf, b.buf)
	return &State[T]{RNG: rng, Cur: b.cur, Buf: buf, Stats: b.Stats}, nil
}

// Restore replaces the balancer's state with a snapshot taken by
// Checkpoint. The balancer keeps its accessor functions and emit hook.
func (b *Balancer[T]) Restore(s *State[T]) error {
	src := &rand.PCG{}
	if err := src.UnmarshalBinary(s.RNG); err != nil {
		return fmt.Errorf("balance: restoring rng: %w", err)
	}
	b.src = src
	b.rng = rand.New(src)
	b.cur = s.Cur
	b.buf = append(b.buf[:0], s.Buf...)
	b.Stats = s.Stats
	return nil
}
