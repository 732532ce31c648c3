package runtime_test

import (
	"bytes"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/miniredis"
	"repro/internal/redisclient"
	"repro/internal/resp"
	"repro/internal/runtime"
)

// tapConn passes a connection through, showing every write to onWrite
// first; an error from onWrite fails the write before any byte is sent.
type tapConn struct {
	net.Conn
	onWrite func(p []byte) error
}

func (c *tapConn) Write(p []byte) (int, error) {
	if err := c.onWrite(p); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}

// tapDialer is a redisclient Dialer whose connections are tapped.
func tapDialer(onWrite func(p []byte) error) func(network, addr string, timeout time.Duration) (net.Conn, error) {
	return func(network, addr string, timeout time.Duration) (net.Conn, error) {
		nc, err := net.DialTimeout(network, addr, timeout)
		if err != nil {
			return nil, err
		}
		return &tapConn{Conn: nc, onWrite: onWrite}, nil
	}
}

// shardWrite is one connection write: the shard it went to and the verbs
// of the commands it carried. A pipeline is one write.
type shardWrite struct {
	shard int
	verbs []string
}

// writeLog records the writes of every shard of a cluster, in order.
type writeLog struct {
	mu     sync.Mutex
	writes []shardWrite
}

func (l *writeLog) tap(shard int) func(p []byte) error {
	return func(p []byte) error {
		var verbs []string
		r := resp.NewReader(bytes.NewReader(p))
		for {
			argv, err := r.ReadCommand()
			if err != nil {
				break
			}
			verbs = append(verbs, argv[0])
		}
		l.mu.Lock()
		l.writes = append(l.writes, shardWrite{shard: shard, verbs: verbs})
		l.mu.Unlock()
		return nil
	}
}

// take returns the writes recorded since the last take and clears the log.
func (l *writeLog) take() []shardWrite {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.writes
	l.writes = nil
	return out
}

// newTappedTransport is a pool transport over n embedded shards whose
// client writes are recorded.
func newTappedTransport(t *testing.T, shards, workers int, recoverStale bool) (*runtime.RedisTransport, *redisclient.Cluster, runtime.RedisKeys, *writeLog) {
	t.Helper()
	addrs := make([]string, shards)
	for i := range addrs {
		srv, err := miniredis.StartTestServer()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr()
	}
	cluster, err := redisclient.NewCluster(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	log := &writeLog{}
	for s := 0; s < shards; s++ {
		cluster.Shard(s).Dialer = tapDialer(log.tap(s))
	}
	keys := runtime.NewRunKeys("refill", 1)
	plan := runtime.NewPlan(make([]runtime.WorkerSpec, workers), map[string]int{"pe": 0})
	tr, err := runtime.NewRedisTransport(cluster, keys, plan, recoverStale)
	if err != nil {
		t.Fatal(err)
	}
	log.take()
	return tr, cluster, keys, log
}

// assertReleased checks that nothing is pending and no shard's PEL holds an
// entry for worker 0.
func assertReleased(t *testing.T, tr *runtime.RedisTransport, cluster *redisclient.Cluster, keys runtime.RedisKeys) {
	t.Helper()
	for s := 0; s < cluster.NumShards(); s++ {
		if ids, err := cluster.Shard(s).XPendingIDs(keys.Queue, keys.Group, "w0", 16); err != nil || len(ids) != 0 {
			t.Fatalf("shard %d PEL holds %v (%v), want the entries acked", s, ids, err)
		}
	}
	if p, err := tr.Pending(); err != nil || p != 0 {
		t.Fatalf("pending = %d (%v), want 0", p, err)
	}
}

// TestRedisRefillIsOneRoundTrip pins the refill's wire shape: the release
// a worker hands to PullBatch rides the home shard's read, so releasing a
// processed batch and waiting for the next one cost one round trip. Other
// shards' releases go first on their own, and a fenced release keeps its
// own round trip.
func TestRedisRefillIsOneRoundTrip(t *testing.T) {
	t.Run("one shard", func(t *testing.T) {
		tr, cluster, keys, log := newTappedTransport(t, 1, 1, false)
		if err := tr.Push(poolTasks(4)...); err != nil {
			t.Fatal(err)
		}
		envs, err := tr.PullBatch(0, 4, 5*time.Millisecond)
		if err != nil || len(envs) != 4 {
			t.Fatalf("pull: %d envs, %v", len(envs), err)
		}
		log.take()
		before := cluster.Stats().RoundTrips
		got, err := tr.PullBatch(0, 4, 20*time.Millisecond, envs...)
		if err != nil || len(got) != 0 {
			t.Fatalf("refill on an empty queue: %d envs, %v", len(got), err)
		}
		if d := cluster.Stats().RoundTrips - before; d != 1 {
			t.Fatalf("release + refill took %d round trips, want 1", d)
		}
		want := []shardWrite{{0, []string{"XACK", "INCRBY", "XREADGROUP"}}}
		if writes := log.take(); !reflect.DeepEqual(writes, want) {
			t.Fatalf("writes %v, want %v", writes, want)
		}
		assertReleased(t, tr, cluster, keys)
	})

	t.Run("two shards", func(t *testing.T) {
		tr, cluster, keys, log := newTappedTransport(t, 2, 1, false)
		// One Push per task: the entries round-robin over both shards.
		for _, task := range poolTasks(2) {
			if err := tr.Push(task); err != nil {
				t.Fatal(err)
			}
		}
		var held []runtime.Env
		for i := 0; i < 10 && len(held) < 2; i++ {
			envs, err := tr.PullBatch(0, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, envs...)
		}
		if len(held) != 2 || held[0].Shard == held[1].Shard {
			t.Fatalf("held %+v, want one delivery from each shard", held)
		}
		log.take()
		got, err := tr.PullBatch(0, 4, 20*time.Millisecond, held...)
		if err != nil || len(got) != 0 {
			t.Fatalf("refill on empty queues: %d envs, %v", len(got), err)
		}
		writes := log.take()
		want := []shardWrite{
			{1, []string{"XACK", "INCRBY"}},
			{0, []string{"XACK", "INCRBY", "XREADGROUP"}},
		}
		if len(writes) < 2 || !reflect.DeepEqual(writes[:2], want) {
			t.Fatalf("writes %v, want the other shard's release first, then the home release ahead of the home read: %v", writes, want)
		}
		assertReleased(t, tr, cluster, keys)
	})

	t.Run("fenced", func(t *testing.T) {
		tr, cluster, keys, log := newTappedTransport(t, 1, 1, true)
		if err := tr.Push(poolTasks(2)...); err != nil {
			t.Fatal(err)
		}
		envs, err := tr.PullBatch(0, 4, 5*time.Millisecond)
		if err != nil || len(envs) != 2 {
			t.Fatalf("pull: %d envs, %v", len(envs), err)
		}
		log.take()
		if _, err := tr.PullBatch(0, 4, 20*time.Millisecond, envs...); err != nil {
			t.Fatal(err)
		}
		writes := log.take()
		if len(writes) == 0 || !reflect.DeepEqual(writes[0], shardWrite{0, []string{"FENCEXACK"}}) {
			t.Fatalf("writes %v, want FENCEXACK alone first", writes)
		}
		for _, w := range writes[1:] {
			for _, verb := range w.verbs {
				if verb == "FENCEXACK" {
					t.Fatalf("writes %v: FENCEXACK sent again", writes)
				}
			}
		}
		assertReleased(t, tr, cluster, keys)
	})
}
