package par

import (
	"context"
	"time"
)

// Backoff produces capped exponential retry delays without jitter: attempt
// n sleeps Base*2^n, capped at Max. The schedule is a pure function of the
// attempt count, which is what lets the chaos harness assert exact backoff
// sequences.
//
// The zero value uses the documented defaults. A Backoff is not safe for
// concurrent use: it belongs to one retry loop.
type Backoff struct {
	// Base is the first delay. Defaults to 50ms when zero.
	Base time.Duration
	// Max caps the exponential growth. Defaults to 30s when zero.
	Max time.Duration
	// Sleep performs the waiting; defaults to time.Sleep. The chaos harness
	// injects a virtual sleeper here so retries cost no wall time.
	Sleep func(time.Duration)

	attempt int
}

// Next returns the delay for the current attempt and advances the attempt
// counter. It does not sleep.
func (b *Backoff) Next() time.Duration {
	base, max := b.Base, b.Max
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if max <= 0 {
		max = 30 * time.Second
	}
	d := float64(base)
	for i := 0; i < b.attempt; i++ {
		d *= 2
		if d >= float64(max) {
			d = float64(max)
			break
		}
	}
	if d > float64(max) {
		d = float64(max)
	}
	b.attempt++
	return time.Duration(d)
}

// Attempt returns how many delays Next has handed out since the last Reset.
func (b *Backoff) Attempt() int { return b.attempt }

// Reset rewinds the schedule to the first attempt; call it after a success
// so the next failure starts from Base again.
func (b *Backoff) Reset() { b.attempt = 0 }

// Wait sleeps for the next delay in the schedule, honoring ctx: it returns
// ctx.Err() without sleeping when the context is already done. With an
// injected Sleep the sleep itself is not interruptible — virtual sleepers
// return immediately anyway.
func (b *Backoff) Wait(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	d := b.Next()
	sleep := b.Sleep
	if sleep == nil {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
		return nil
	}
	sleep(d)
	return ctx.Err()
}
