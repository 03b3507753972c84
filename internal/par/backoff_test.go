package par

import (
	"context"
	"testing"
	"time"
)

func TestBackoffSchedule(t *testing.T) {
	b := &Backoff{}
	b.Base = 10 * time.Millisecond
	b.Max = 80 * time.Millisecond
	want := []time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
		80 * time.Millisecond,
		80 * time.Millisecond, // capped
	}
	for i, w := range want {
		if got := b.Next(); got != w {
			t.Errorf("attempt %d: got %v, want %v", i, got, w)
		}
	}
	b.Reset()
	if got := b.Next(); got != 10*time.Millisecond {
		t.Errorf("after reset: got %v, want 10ms", got)
	}
}

func TestBackoffWaitVirtualSleeper(t *testing.T) {
	var slept []time.Duration
	b := &Backoff{}
	b.Base = time.Second // would stall the test with a real sleeper
	b.Sleep = func(d time.Duration) { slept = append(slept, d) }
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := b.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if len(slept) != 3 || slept[0] != time.Second || slept[1] != 2*time.Second {
		t.Fatalf("virtual sleeps = %v", slept)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if err := b.Wait(canceled); err == nil {
		t.Fatal("Wait on canceled context succeeded")
	}
}

func TestBackoffZeroValueDefaults(t *testing.T) {
	var b Backoff
	if got := b.Next(); got != 50*time.Millisecond {
		t.Fatalf("first delay = %v, want the 50ms default base", got)
	}
	for i := 0; i < 20; i++ {
		b.Next()
	}
	if got := b.Next(); got != 30*time.Second {
		t.Fatalf("late delay = %v, want the 30s default cap", got)
	}
	if b.Attempt() != 22 {
		t.Fatalf("Attempt = %d, want 22", b.Attempt())
	}
	b.Reset()
	if b.Attempt() != 0 {
		t.Fatalf("Attempt after Reset = %d", b.Attempt())
	}
}

func TestBackoffWaitInterruptedByCancel(t *testing.T) {
	b := &Backoff{Base: time.Hour} // real timer: only the deadline can end the wait
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := b.Wait(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Wait = %v, want context.DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("Wait took %v after its deadline", waited)
	}
}
