package miniredis_test

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/redisclient"
)

func TestXAddXLenXRange(t *testing.T) {
	_, cl := newPair(t)
	id1, err := cl.XAddValues("st", "k", "v1")
	if err != nil || id1 == "" {
		t.Fatalf("XADD: %q %v", id1, err)
	}
	id2, err := cl.XAddValues("st", "k", "v2")
	if err != nil {
		t.Fatal(err)
	}
	if !(id1 < id2) && !streamIDLess(id1, id2) {
		t.Fatalf("IDs not increasing: %q then %q", id1, id2)
	}
	n, err := cl.XLen("st")
	mustInt(t, n, err, 2, "XLEN")

	// Read the entries back, oldest first, through a group created at 0.
	if err := cl.XGroupCreate("st", "g", "0"); err != nil {
		t.Fatal(err)
	}
	v, err := cl.Do("XREADGROUP", "GROUP", "g", "c", "STREAMS", "st", ">")
	if err != nil || len(v.Array) != 1 {
		t.Fatalf("XREADGROUP: %+v %v", v, err)
	}
	entries := v.Array[0].Array[1].Array
	if len(entries) != 2 || entries[0].Array[0].Str != id1 || entries[1].Array[0].Str != id2 {
		t.Fatalf("entries: %+v", entries)
	}
	fields := entries[0].Array[1]
	if fields.Array[0].Str != "k" || fields.Array[1].Str != "v1" {
		t.Fatalf("first entry fields: %+v", fields)
	}
}

// pendingPerConsumer reads the XPENDING summary form: the group's PEL size
// and its per-consumer counts.
func pendingPerConsumer(t *testing.T, cl *redisclient.Client, key, group string) (int64, map[string]int64) {
	t.Helper()
	v, err := cl.Do("XPENDING", key, group)
	if err != nil || len(v.Array) != 4 {
		t.Fatalf("XPENDING %s %s: %+v %v", key, group, v, err)
	}
	per := map[string]int64{}
	for _, row := range v.Array[3].Array {
		n, err := strconv.ParseInt(row.Array[1].Str, 10, 64)
		if err != nil {
			t.Fatalf("XPENDING consumer row %+v: %v", row, err)
		}
		per[row.Array[0].Str] = n
	}
	return v.Array[0].Int, per
}

// streamIDLess compares "ms-seq" ids numerically.
func streamIDLess(a, b string) bool {
	pa := strings.SplitN(a, "-", 2)
	pb := strings.SplitN(b, "-", 2)
	if pa[0] != pb[0] {
		return len(pa[0]) < len(pb[0]) || pa[0] < pb[0]
	}
	return len(pa[1]) < len(pb[1]) || pa[1] < pb[1]
}

func TestXAddExplicitIDMonotonic(t *testing.T) {
	_, cl := newPair(t)
	if _, err := cl.Do("XADD", "st", "5-1", "a", "1"); err != nil {
		t.Fatal(err)
	}
	_, err := cl.Do("XADD", "st", "5-1", "a", "2")
	var se redisclient.ServerError
	if !errors.As(err, &se) || !strings.Contains(string(se), "equal or smaller") {
		t.Fatalf("expected monotonic error, got %v", err)
	}
	if _, err := cl.Do("XADD", "st", "5-2", "a", "3"); err != nil {
		t.Fatal(err)
	}
	// "ms-*" auto-sequence form.
	v, err := cl.Do("XADD", "st", "5-*", "a", "4")
	if err != nil || v.Str != "5-3" {
		t.Fatalf("XADD 5-*: %+v %v", v, err)
	}
}

func TestXAddMaxLen(t *testing.T) {
	_, cl := newPair(t)
	for i := 0; i < 10; i++ {
		if _, err := cl.Do("XADD", "st", "MAXLEN", "5", "*", "i", "x"); err != nil {
			t.Fatal(err)
		}
	}
	n, err := cl.XLen("st")
	mustInt(t, n, err, 5, "XLEN after MAXLEN")
}

func TestConsumerGroupLifecycle(t *testing.T) {
	_, cl := newPair(t)
	if err := cl.XGroupCreate("tasks", "workers", "0"); err != nil {
		t.Fatal(err)
	}
	// Duplicate create is swallowed by the client helper.
	if err := cl.XGroupCreate("tasks", "workers", "0"); err != nil {
		t.Fatalf("duplicate create: %v", err)
	}

	id1, err := cl.XAddValues("tasks", "job", "a")
	if err != nil {
		t.Fatal(err)
	}
	id2, err := cl.XAddValues("tasks", "job", "b")
	if err != nil {
		t.Fatal(err)
	}

	entries, err := cl.XReadGroup("workers", "w1", 1, 0, "tasks")
	if err != nil || len(entries) != 1 || entries[0].ID != id1 {
		t.Fatalf("XREADGROUP first: %+v %v", entries, err)
	}
	if entries[0].Fields["job"] != "a" {
		t.Fatalf("fields: %+v", entries[0].Fields)
	}
	entries, err = cl.XReadGroup("workers", "w2", 10, 0, "tasks")
	if err != nil || len(entries) != 1 || entries[0].ID != id2 {
		t.Fatalf("XREADGROUP second consumer: %+v %v", entries, err)
	}
	// Nothing new left.
	entries, err = cl.XReadGroup("workers", "w1", 1, 0, "tasks")
	if err != nil || len(entries) != 0 {
		t.Fatalf("XREADGROUP drained: %+v %v", entries, err)
	}

	count, per := pendingPerConsumer(t, cl, "tasks", "workers")
	if count != 2 || per["w1"] != 1 || per["w2"] != 1 {
		t.Fatalf("XPENDING: %d %+v", count, per)
	}

	n, err := cl.XAck("tasks", "workers", id1)
	mustInt(t, n, err, 1, "XACK")
	if count, _ := pendingPerConsumer(t, cl, "tasks", "workers"); count != 1 {
		t.Fatalf("XPENDING after ack: %d", count)
	}
	// Double-ack is a no-op.
	n, err = cl.XAck("tasks", "workers", id1)
	mustInt(t, n, err, 0, "double XACK")
}

func TestXReadGroupReplayPending(t *testing.T) {
	_, cl := newPair(t)
	if err := cl.XGroupCreate("tasks", "g", "0"); err != nil {
		t.Fatal(err)
	}
	id, err := cl.XAddValues("tasks", "job", "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.XReadGroup("g", "w1", 1, 0, "tasks"); err != nil {
		t.Fatal(err)
	}
	// Replay from 0 returns the un-acked entry.
	v, err := cl.Do("XREADGROUP", "GROUP", "g", "w1", "STREAMS", "tasks", "0")
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Array) != 1 {
		t.Fatalf("replay reply: %+v", v)
	}
	entries := v.Array[0].Array[1].Array
	if len(entries) != 1 || entries[0].Array[0].Str != id {
		t.Fatalf("replay entries: %+v", entries)
	}
}

func TestXReadGroupBlocking(t *testing.T) {
	srv, cl := newPair(t)
	if err := cl.XGroupCreate("tasks", "g", "$"); err != nil {
		t.Fatal(err)
	}
	producer := redisclient.Dial(srv.Addr())
	defer producer.Close()

	done := make(chan string, 1)
	go func() {
		entries, err := cl.XReadGroup("g", "w1", 1, 5*time.Second, "tasks")
		if err != nil || len(entries) != 1 {
			done <- "error"
			return
		}
		done <- entries[0].Fields["job"]
	}()
	time.Sleep(30 * time.Millisecond)
	if _, err := producer.XAddValues("tasks", "job", "late"); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-done:
		if got != "late" {
			t.Fatalf("blocking read woke with %q", got)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("XREADGROUP BLOCK did not wake")
	}
}

func TestXReadGroupBlockTimesOut(t *testing.T) {
	_, cl := newPair(t)
	if err := cl.XGroupCreate("tasks", "g", "$"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	entries, err := cl.XReadGroup("g", "w1", 1, 60*time.Millisecond, "tasks")
	if err != nil || entries != nil {
		t.Fatalf("timeout read: %+v %v", entries, err)
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Fatal("returned before timeout")
	}
}

func TestNoGroupError(t *testing.T) {
	_, cl := newPair(t)
	if _, err := cl.XAddValues("st", "a", "b"); err != nil {
		t.Fatal(err)
	}
	_, err := cl.XReadGroup("absent", "c", 1, 0, "st")
	var se redisclient.ServerError
	if !errors.As(err, &se) || !strings.HasPrefix(string(se), "NOGROUP") {
		t.Fatalf("expected NOGROUP, got %v", err)
	}
}

func TestXPendingExtendedAndIdle(t *testing.T) {
	_, cl := newPair(t)
	if err := cl.XGroupCreate("st", "g", "0"); err != nil {
		t.Fatal(err)
	}
	id, err := cl.XAddValues("st", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.XReadGroup("g", "w1", 1, 0, "st"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	v, err := cl.Do("XPENDING", "st", "g", "-", "+", "10")
	if err != nil || len(v.Array) != 1 {
		t.Fatalf("XPENDING ext: %+v %v", v, err)
	}
	row := v.Array[0].Array
	if row[0].Str != id || row[1].Str != "w1" {
		t.Fatalf("row: %+v", row)
	}
	if row[2].Int < 10 {
		t.Fatalf("idle too small: %d", row[2].Int)
	}
	if row[3].Int != 1 {
		t.Fatalf("delivery count: %d", row[3].Int)
	}
	// IDLE filter excludes fresh entries.
	v, err = cl.Do("XPENDING", "st", "g", "IDLE", "60000", "-", "+", "10")
	if err != nil || len(v.Array) != 0 {
		t.Fatalf("XPENDING IDLE filter: %+v %v", v, err)
	}
}

func TestXClaimAndAutoClaim(t *testing.T) {
	_, cl := newPair(t)
	if err := cl.XGroupCreate("st", "g", "0"); err != nil {
		t.Fatal(err)
	}
	id, err := cl.XAddValues("st", "task", "t1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.XReadGroup("g", "dead", 1, 0, "st"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(15 * time.Millisecond)

	// XCLAIM with min-idle 0 moves it immediately.
	v, err := cl.Do("XCLAIM", "st", "g", "alive", "0", id)
	if err != nil || len(v.Array) != 1 {
		t.Fatalf("XCLAIM: %+v %v", v, err)
	}
	if _, per := pendingPerConsumer(t, cl, "st", "g"); per["alive"] != 1 || per["dead"] != 0 {
		t.Fatalf("after claim: %+v", per)
	}

	// XAUTOCLAIM with huge min-idle claims nothing.
	_, claimed, err := cl.XAutoClaim("st", "g", "third", time.Hour, "0-0", 10)
	if err != nil || len(claimed) != 0 {
		t.Fatalf("XAUTOCLAIM high idle: %+v %v", claimed, err)
	}
	// With zero min-idle it takes the entry over.
	_, claimed, err = cl.XAutoClaim("st", "g", "third", 0, "0-0", 10)
	if err != nil || len(claimed) != 1 || claimed[0].ID != id {
		t.Fatalf("XAUTOCLAIM: %+v %v", claimed, err)
	}
}

func TestXInfo(t *testing.T) {
	_, cl := newPair(t)
	if err := cl.XGroupCreate("st", "g", "0"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.XAddValues("st", "a", "1"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.XReadGroup("g", "w1", 1, 0, "st"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(12 * time.Millisecond)
	infos, err := cl.XInfoConsumers("st", "g")
	if err != nil || len(infos) != 1 {
		t.Fatalf("XINFO CONSUMERS: %+v %v", infos, err)
	}
	if infos[0].Name != "w1" || infos[0].Pending != 1 || infos[0].Idle < 10*time.Millisecond {
		t.Fatalf("consumer info: %+v", infos[0])
	}
	// An unknown group is NOGROUP, not an empty list.
	_, err = cl.XInfoConsumers("st", "nosuch")
	var se redisclient.ServerError
	if !errors.As(err, &se) || !strings.HasPrefix(string(se), "NOGROUP") {
		t.Fatalf("XINFO CONSUMERS unknown group: %v", err)
	}
}

func TestXTrim(t *testing.T) {
	_, cl := newPair(t)
	for i := 0; i < 5; i++ {
		if _, err := cl.XAddValues("st", "i", "x"); err != nil {
			t.Fatal(err)
		}
	}
	n, err := cl.DoInt("XTRIM", "st", "MAXLEN", "~", "3")
	mustInt(t, n, err, 2, "XTRIM")
	n, err = cl.DoInt("XTRIM", "st", "MAXLEN", "1")
	mustInt(t, n, err, 2, "XTRIM")
	n, err = cl.XLen("st")
	mustInt(t, n, err, 1, "XLEN after XTRIM")
	n, err = cl.DoInt("XTRIM", "missing", "MAXLEN", "0")
	mustInt(t, n, err, 0, "XTRIM missing key")
}
