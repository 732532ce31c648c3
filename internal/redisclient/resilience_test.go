package redisclient_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/redisclient"
)

// arm installs a process-global injector for the duration of one test.
// Fault arming is global, so none of these tests may run in parallel.
func arm(t *testing.T, faults ...faultinject.Fault) *faultinject.Injector {
	t.Helper()
	inj := faultinject.New(1)
	for _, f := range faults {
		inj.Schedule(f)
	}
	faultinject.Arm(inj)
	t.Cleanup(faultinject.Disarm)
	return inj
}

// TestRetryOnConnDrop: a dropped connection mid-read is retried
// transparently for a retry-safe command.
func TestRetryOnConnDrop(t *testing.T) {
	cl := newPair(t)
	if err := cl.Set("k", "v"); err != nil {
		t.Fatal(err)
	}
	arm(t, faultinject.Fault{
		Probe: faultinject.ProbeConnRead, Cmd: "GET", Hits: 1, Kind: faultinject.ConnDrop,
	})
	before := cl.Stats()
	v, ok, err := cl.Get("k")
	if err != nil || !ok || v != "v" {
		t.Fatalf("Get after drop: %q %v %v", v, ok, err)
	}
	after := cl.Stats()
	if after.Retries-before.Retries < 1 {
		t.Fatalf("no retry recorded: %+v -> %+v", before, after)
	}
}

// TestReplyLostExactlyOnce: the reply to a FENCEAPPLY is lost after the
// server executed it. The client's retry re-sends the command; the
// server-side applied ledger absorbs the duplicate, so the effect lands
// exactly once and the retry still reports the effective value.
func TestReplyLostExactlyOnce(t *testing.T) {
	cl := newPair(t)
	arm(t, faultinject.Fault{
		Probe: faultinject.ProbeConnRead, Cmd: "FENCEAPPLY", Hits: 1, Kind: faultinject.ConnDrop,
	})
	_, n, err := cl.FenceApplyIncr("h", "gate", "cnt", 7)
	if err != nil {
		t.Fatal(err)
	}
	// Whichever of the two server-side executions wins the race to apply,
	// the observed value is exact and the effect lands once.
	if n != 7 {
		t.Fatalf("n=%d want 7", n)
	}
	if v, _, _ := cl.HGet("h", "cnt"); v != "7" {
		t.Fatalf("cnt=%q want 7 (double-applied?)", v)
	}
	// Both executions recorded their ledger hit; one applied.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if c, _, _ := cl.HGet("h", "gate"); c == "2" {
			break
		}
		if time.Now().After(deadline) {
			c, _, _ := cl.HGet("h", "gate")
			t.Fatalf("ledger count=%q want 2", c)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNonRetryableSurfacesDrop: XADD is a relative-effect write, so a lost
// reply must surface as an error rather than risk a duplicate entry.
func TestNonRetryableSurfacesDrop(t *testing.T) {
	cl := newPair(t)
	arm(t, faultinject.Fault{
		Probe: faultinject.ProbeConnRead, Cmd: "XADD", Hits: 1, Kind: faultinject.ConnDrop,
	})
	before := cl.Stats()
	_, err := cl.XAddValues("q", "f", "v")
	if !errors.Is(err, faultinject.ErrConnDrop) {
		t.Fatalf("want ErrConnDrop, got %v", err)
	}
	if got := cl.Stats().Retries - before.Retries; got != 0 {
		t.Fatalf("non-retryable command retried %d times", got)
	}
	// The abandoned attempt was already on the wire, so the server still
	// executes it — asynchronously to the client's error return.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n, _ := cl.XLen("q"); n == 1 {
			break
		}
		if time.Now().After(deadline) {
			n, _ := cl.XLen("q")
			t.Fatalf("stream len=%d want 1 (the attempt did execute)", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCmdErrorNamesCommand: failures carry the command verb and classify
// terminal server replies as non-retryable.
func TestCmdErrorNamesCommand(t *testing.T) {
	cl := newPair(t)
	_, err := cl.Do("HGET", "h") // bad arity
	if err == nil {
		t.Fatal("bad arity accepted")
	}
	if !strings.Contains(err.Error(), "HGET") {
		t.Fatalf("error does not name the command: %v", err)
	}
	var ce *redisclient.CmdError
	if !errors.As(err, &ce) {
		t.Fatalf("not a CmdError: %v", err)
	}
	if ce.Retryable() {
		t.Fatal("arity error classified retryable")
	}
	var se redisclient.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("ServerError not reachable through CmdError: %v", err)
	}
}

// TestKillFaultIsTerminal: a Kill fault must abort immediately — no retry
// may paper over a simulated process death.
func TestKillFaultIsTerminal(t *testing.T) {
	cl := newPair(t)
	arm(t, faultinject.Fault{
		Probe: faultinject.ProbeConnWrite, Cmd: "GET", Hits: 1, Kind: faultinject.Kill,
	})
	before := cl.Stats()
	_, _, err := cl.Get("k")
	if !errors.Is(err, faultinject.ErrKill) {
		t.Fatalf("want ErrKill, got %v", err)
	}
	if got := cl.Stats().Retries - before.Retries; got != 0 {
		t.Fatalf("kill fault retried %d times", got)
	}
}

// TestXReadGroupTimeoutBehavior: a positive block — sub-millisecond
// included — must time out with an empty read, never turn into "BLOCK 0"
// (block forever) and outwait the command deadline; zero and negative blocks
// are non-blocking reads that still return a waiting entry.
func TestXReadGroupTimeoutBehavior(t *testing.T) {
	cl := newPair(t)
	cl.CmdTimeout = 2 * time.Second
	if err := cl.XGroupCreate("empty", "g", "$"); err != nil {
		t.Fatal(err)
	}
	for _, block := range []time.Duration{500 * time.Microsecond, 50 * time.Millisecond} {
		start := time.Now()
		entries, err := cl.XReadGroup("g", "c", 1, block, "empty")
		if err != nil || entries != nil {
			t.Fatalf("XReadGroup block=%v on empty: %+v %v", block, entries, err)
		}
		if took := time.Since(start); took > time.Second {
			t.Fatalf("XReadGroup block=%v took %v", block, took)
		}
	}
	if err := cl.XGroupCreate("l", "g", "0"); err != nil {
		t.Fatal(err)
	}
	for _, block := range []time.Duration{0, -time.Second} {
		id, err := cl.XAddValues("l", "f", "x")
		if err != nil {
			t.Fatal(err)
		}
		entries, err := cl.XReadGroup("g", "c", 1, block, "l")
		if err != nil || len(entries) != 1 || entries[0].ID != id {
			t.Fatalf("XReadGroup block=%v with entry waiting: %+v %v", block, entries, err)
		}
	}
}
