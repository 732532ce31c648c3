package redisclient_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/miniredis"
	"repro/internal/redisclient"
)

func newPair(t *testing.T) *redisclient.Client {
	t.Helper()
	srv, err := miniredis.StartTestServer()
	if err != nil {
		t.Fatal(err)
	}
	cl := redisclient.Dial(srv.Addr())
	t.Cleanup(func() {
		cl.Close()
		srv.Close()
	})
	return cl
}

func TestPingAndPoolReuse(t *testing.T) {
	cl := newPair(t)
	for i := 0; i < 20; i++ {
		if err := cl.Ping(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDialUnreachable(t *testing.T) {
	cl := redisclient.Dial("127.0.0.1:1")
	cl.DialTimeout = 200 * time.Millisecond
	defer cl.Close()
	if err := cl.Ping(); err == nil {
		t.Fatal("ping to closed port should fail")
	}
}

func TestClosedClient(t *testing.T) {
	cl := newPair(t)
	cl.Close()
	if _, err := cl.Do("PING"); !errors.Is(err, redisclient.ErrClosed) {
		t.Fatalf("err=%v want ErrClosed", err)
	}
}

func TestServerErrorSurface(t *testing.T) {
	cl := newPair(t)
	_, err := cl.Do("GET", "a", "b", "c")
	var se redisclient.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("want ServerError, got %v", err)
	}
	if se.Error() == "" {
		t.Error("empty error text")
	}
}

func TestTypedHelpers(t *testing.T) {
	cl := newPair(t)
	if err := cl.Set("k", "v"); err != nil {
		t.Fatal(err)
	}
	if s, ok, err := cl.Get("k"); err != nil || !ok || s != "v" {
		t.Fatalf("Get: %q %v %v", s, ok, err)
	}
	if n, err := cl.IncrBy("c", 5); err != nil || n != 5 {
		t.Fatalf("IncrBy: %d %v", n, err)
	}
	if err := cl.HSet("h", "f", "1"); err != nil {
		t.Fatal(err)
	}
	all, err := cl.HGetAll("h")
	if err != nil || all["f"] != "1" {
		t.Fatalf("HGetAll: %v %v", all, err)
	}
	if v, ok, err := cl.HGet("h", "f"); err != nil || !ok || v != "1" {
		t.Fatalf("HGet: %q %v %v", v, ok, err)
	}
	if n, err := cl.HIncrBy("h", "n", 3); err != nil || n != 3 {
		t.Fatalf("HIncrBy: %d %v", n, err)
	}
	if n, err := cl.HLen("h"); err != nil || n != 2 {
		t.Fatalf("HLen: %d %v", n, err)
	}
	if n, err := cl.HDel("h", "f", "nope"); err != nil || n != 1 {
		t.Fatalf("HDel: %d %v", n, err)
	}
	if ok, err := cl.SetNX("k", "other", time.Second); err != nil || ok {
		t.Fatalf("SetNX on existing key: %v %v", ok, err)
	}
	if n, err := cl.Del("k", "c", "h"); err != nil || n != 3 {
		t.Fatalf("Del: %d %v", n, err)
	}
	if _, ok, _ := cl.Get("k"); ok {
		t.Error("key survived Del")
	}
}

func TestStreamHelpers(t *testing.T) {
	cl := newPair(t)
	if err := cl.XGroupCreate("st", "g", "0"); err != nil {
		t.Fatal(err)
	}
	id, err := cl.XAddValues("st", "f", "payload")
	if err != nil || id == "" {
		t.Fatalf("XAddValues: %q %v", id, err)
	}
	if n, err := cl.XLen("st"); err != nil || n != 1 {
		t.Fatalf("XLen: %d %v", n, err)
	}
	entries, err := cl.XReadGroup("g", "c1", 5, 0, "st")
	if err != nil || len(entries) != 1 || entries[0].Fields["f"] != "payload" {
		t.Fatalf("XReadGroup: %+v %v", entries, err)
	}
	if ids, err := cl.XPendingIDs("st", "g", "c1", 10); err != nil || len(ids) != 1 || ids[0] != id {
		t.Fatalf("XPendingIDs: %v %v", ids, err)
	}
	infos, err := cl.XInfoConsumers("st", "g")
	if err != nil || len(infos) != 1 || infos[0].Name != "c1" {
		t.Fatalf("XInfoConsumers: %+v %v", infos, err)
	}
	if n, err := cl.XAck("st", "g", id); err != nil || n != 1 {
		t.Fatalf("XAck: %d %v", n, err)
	}
	// XAutoClaim empty PEL is a no-op.
	cursor, claimed, err := cl.XAutoClaim("st", "g", "c2", 0, "0-0", 10)
	if err != nil || len(claimed) != 0 || cursor == "" {
		t.Fatalf("XAutoClaim: %q %+v %v", cursor, claimed, err)
	}
}

func TestXAckBatchedIDs(t *testing.T) {
	// One XACK command releases several deliveries at once — the pipelined
	// ack path of the batched consume loop relies on this being a single
	// round trip rather than one command per entry.
	cl := newPair(t)
	if err := cl.XGroupCreate("st", "g", "0"); err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, 5)
	for i := 0; i < 5; i++ {
		id, err := cl.XAddValues("st", "f", "v")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	entries, err := cl.XReadGroup("g", "c1", 5, 0, "st")
	if err != nil || len(entries) != 5 {
		t.Fatalf("XReadGroup: %d entries, %v", len(entries), err)
	}
	if n, err := cl.XAck("st", "g", ids...); err != nil || n != 5 {
		t.Fatalf("batched XAck: %d %v, want 5", n, err)
	}
	if left, err := cl.XPendingIDs("st", "g", "c1", 10); err != nil || len(left) != 0 {
		t.Fatalf("PEL after batched ack: %v %v", left, err)
	}
	// Already-acked and never-delivered IDs count zero, mixed with a live one.
	id, err := cl.XAddValues("st", "f", "v")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.XReadGroup("g", "c1", 1, 0, "st"); err != nil {
		t.Fatal(err)
	}
	if n, err := cl.XAck("st", "g", ids[0], id, "99999-0"); err != nil || n != 1 {
		t.Fatalf("mixed XAck: %d %v, want 1", n, err)
	}
}

func TestConcurrentPoolUse(t *testing.T) {
	cl := newPair(t)
	var wg sync.WaitGroup
	for w := 0; w < 10; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := cl.IncrBy("n", 1); err != nil {
					t.Errorf("incr: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	s, ok, err := cl.Get("n")
	if err != nil || !ok || s != "250" {
		t.Fatalf("final: %q %v %v", s, ok, err)
	}
}
