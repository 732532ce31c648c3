package redisclient

import (
	"testing"
	"time"
)

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		argv []string
		want bool
	}{
		{[]string{"GET", "k"}, true},
		{[]string{"HSET", "h", "f", "v"}, true},
		{[]string{"DEL", "k"}, true},
		{[]string{"SET", "k", "v"}, true},
		{[]string{"SET", "k", "v", "NX", "PX", "100"}, false}, // lock-stuck hazard
		{[]string{"INCRBY", "k", "1"}, false},                 // relative effect
		{[]string{"XADD", "q", "*", "f", "v"}, false},
		{[]string{"HINCRBY", "h", "f", "1"}, false},
		{[]string{"XAUTOCLAIM", "q", "g", "w0", "0", "0-0"}, false},
		{[]string{"XREADGROUP", "GROUP", "g", "w0"}, false},
		{[]string{"FENCEAPPLY", "h", "lf", "SET", "k", "v"}, true}, // ledger-gated
		{[]string{"SINKAPPEND", "h", "lf", "0"}, true},
		{[]string{"FENCEXACK", "q", "g", "w0", "p", "0", "1-1", "2"}, true},
		{[]string{"FENCEXACK", "q", "g", "w0", "p", "3", "1-1", "2"}, false}, // direct dec not idempotent
		{[]string{"XCLAIM", "q", "g", "w0", "0", "1-1", "JUSTID"}, true},
		{[]string{"XCLAIM", "q", "g", "w0", "0", "1-1"}, false},
		{nil, false},
	}
	for _, c := range cases {
		if got := Retryable(c.argv); got != c.want {
			t.Errorf("Retryable(%v) = %v, want %v", c.argv, got, c.want)
		}
	}
}

func TestBackoffBounds(t *testing.T) {
	for attempt := 1; attempt <= 6; attempt++ {
		d := backoff(2*time.Millisecond, 50*time.Millisecond, attempt)
		// ±50% jitter around the capped doubling: never zero, never past
		// 1.5× the cap.
		if d <= 0 || d > 75*time.Millisecond {
			t.Fatalf("backoff(attempt=%d) = %v out of bounds", attempt, d)
		}
	}
	if d := backoff(0, 0, 1); d <= 0 {
		t.Fatalf("zero-base backoff = %v", d)
	}
}
