package redismap_test

import (
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/miniredis"
	"repro/internal/platform"
	"repro/internal/redisclient"
	"repro/internal/state"
)

// TestDynRedisRecoversAbandonedTask injects a failure: a rogue consumer
// joins the worker group before the run, steals the first task from the
// stream and never acknowledges or processes it — the observable behaviour
// of a worker process that crashed mid-task. With RecoverStale the real
// workers must reclaim the pending entry via XAUTOCLAIM and finish the
// workflow completely.
//
// The theft is deterministic: batching is off, so every emitted value is
// its own stream entry and every pull takes one, and the sink holds each
// worker until the rogue has stolen. All workers end up parked in the sink
// with entries still queued, so the rogue always finds one to take.
func TestDynRedisRecoversAbandonedTask(t *testing.T) {
	srv, err := miniredis.StartTestServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const n = 15
	col := &collector{}
	stolenCh := make(chan struct{})
	g := graph.New("recovery")
	g.Add(func() core.PE {
		return core.NewSource("gen", func(ctx *core.Context) error {
			for i := 1; i <= n; i++ {
				if err := ctx.EmitDefault(i); err != nil {
					return err
				}
			}
			return nil
		})
	})
	g.Add(func() core.PE {
		return core.NewSink("sink", func(ctx *core.Context, v any) error {
			select {
			case <-stolenCh:
			case <-time.After(10 * time.Second):
			}
			col.add(int64(v.(int)))
			return nil
		})
	})
	g.Pipe("gen", "sink")

	opts := mapping.Options{
		Processes:    3,
		Platform:     platformForTest(),
		Seed:         77,
		RedisAddr:    srv.Addr(),
		RecoverStale: true,
		PollTimeout:  2 * time.Millisecond,
		Retries:      40, // generous: termination must wait out the recovery
		EmitBatch:    1,
		PullBatch:    1,
	}

	// The rogue runs concurrently with Execute: it steals either the seeded
	// source task or, once the workers are parked in the sink, one of the
	// queued values.
	rogue := redisclient.Dial(srv.Addr())
	defer rogue.Close()

	theft := make(chan string, 1)
	go func() {
		defer close(stolenCh)
		// Poll until the run's queue appears, then steal one entry under a
		// consumer that will never ack it.
		for i := 0; i < 2000; i++ {
			keysReply, err := rogue.Do("KEYS", "d4p:recovery:*:queue")
			if err != nil || len(keysReply.Array) == 0 {
				time.Sleep(time.Millisecond)
				continue
			}
			queue := keysReply.Array[0].Str
			entries, err := rogue.XReadGroup("workers", "rogue", 1, 0, queue)
			if err == nil && len(entries) == 1 {
				theft <- entries[0].ID
				return
			}
			time.Sleep(time.Millisecond)
		}
		theft <- ""
	}()

	m, _ := mapping.Get("dyn_redis")
	rep, err := m.Execute(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	stolen := <-theft
	if stolen == "" {
		t.Fatal("rogue consumer never managed to steal a task")
	}
	// All n values must have reached the sink despite the theft: the stolen
	// task was reclaimed and re-executed by a live worker.
	_, count := col.snapshot()
	if count < n {
		t.Fatalf("sink saw %d values, want ≥ %d (stolen task %s not recovered)", count, n, stolen)
	}
	if rep.Tasks < n {
		t.Errorf("tasks=%d want ≥ %d", rep.Tasks, n)
	}
}

// TestDynRedisWithoutRecoveryDocumentsTheGap shows the inverse: with
// RecoverStale off, a stolen task stays pending forever, so the pending
// counter never reaches zero and the run would hang. We assert the
// precondition (pending stuck above zero) on a manually-constructed queue
// rather than hanging a full run.
func TestDynRedisWithoutRecoveryDocumentsTheGap(t *testing.T) {
	srv, err := miniredis.StartTestServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := redisclient.Dial(srv.Addr())
	defer cl.Close()

	if err := cl.XGroupCreate("q", "workers", "0"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.XAddValues("q", "task", "payload"); err != nil {
		t.Fatal(err)
	}
	// Consumer reads and "dies".
	if _, err := cl.XReadGroup("workers", "dead", 1, 0, "q"); err != nil {
		t.Fatal(err)
	}
	// Without reclaim, nothing new is readable and the entry stays pending.
	entries, err := cl.XReadGroup("workers", "alive", 1, 0, "q")
	if err != nil || len(entries) != 0 {
		t.Fatalf("live consumer should see nothing new: %+v %v", entries, err)
	}
	dead, err := cl.XPendingIDs("q", "workers", "dead", 10)
	if err != nil || len(dead) != 1 {
		t.Fatalf("pending under dead: %v %v", dead, err)
	}
	if alive, err := cl.XPendingIDs("q", "workers", "alive", 10); err != nil || len(alive) != 0 {
		t.Fatalf("pending under alive: %v %v", alive, err)
	}
	// With reclaim (what RecoverStale does), the live consumer gets it.
	_, claimed, err := cl.XAutoClaim("q", "workers", "alive", 0, "0-0", 10)
	if err != nil || len(claimed) != 1 {
		t.Fatalf("XAUTOCLAIM: %+v %v", claimed, err)
	}
}

func platformForTest() platform.Platform {
	return platform.Platform{Name: "test", Cores: 4}
}

// replayItem is the keyed payload of the exactly-once replay tests.
type replayItem struct {
	Key string
	Val int64
}

func init() { codec.Register(replayItem{}) }

// slowKeyedCountPE is a managed keyed aggregator that dawdles on every
// update, so its deliveries sit unacknowledged long enough for XAUTOCLAIM
// to hand them to a second worker while the first is still processing.
type slowKeyedCountPE struct {
	core.Base
	delay time.Duration
}

func (p *slowKeyedCountPE) Process(ctx *core.Context, port string, v any) error {
	it := v.(replayItem)
	time.Sleep(p.delay)
	_, err := ctx.State().AddInt(it.Key, it.Val)
	return err
}

func (p *slowKeyedCountPE) Final(ctx *core.Context) error {
	entries, err := state.SortedEntries(ctx.State())
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := ctx.EmitDefault(e.Key + "=" + e.Value); err != nil {
			return err
		}
	}
	return nil
}

// replayAggGraph builds gen → slow keyed count (managed) → sink.
func replayAggGraph(items []replayItem, delay time.Duration, collect func(string)) *graph.Graph {
	g := graph.New("replayagg")
	g.Add(func() core.PE {
		return core.NewSource("gen", func(ctx *core.Context) error {
			for _, it := range items {
				if err := ctx.EmitDefault(it); err != nil {
					return err
				}
			}
			return nil
		})
	})
	g.Add(func() core.PE {
		return &slowKeyedCountPE{Base: core.NewBase("count", core.In(), core.Out()), delay: delay}
	}).SetKeyedState()
	g.Add(func() core.PE {
		return core.NewSink("sink", func(ctx *core.Context, v any) error {
			collect(v.(string))
			return nil
		})
	})
	g.Pipe("gen", "count").SetGrouping(graph.GroupByKey(func(v any) string { return v.(replayItem).Key }))
	g.Pipe("count", "sink")
	return g
}

// TestDynRedisExactlyOnceStateUnderLiveReplay runs a managed keyed
// aggregation through the real dyn_redis mapping with RecoverStale on and a
// poll timeout small enough that the XAUTOCLAIM idle threshold (8× the
// timeout) expires while a live worker is still chewing through its pulled
// batch: pending entries are genuinely claimed to other workers and both
// executions race — the seed's rejected combination, now the fenced path.
// The final aggregates must be byte-identical to an undisturbed sequential
// run: no double-applied updates, no lost updates, no early termination.
func TestDynRedisExactlyOnceStateUnderLiveReplay(t *testing.T) {
	srv, err := miniredis.StartTestServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	items := make([]replayItem, 0, 40)
	for i := 0; i < 40; i++ {
		items = append(items, replayItem{Key: keys[i%len(keys)], Val: int64(i + 1)})
	}

	run := func(name string, opts mapping.Options, delay time.Duration) []string {
		var mu sync.Mutex
		var got []string
		g := replayAggGraph(items, delay, func(s string) {
			mu.Lock()
			got = append(got, s)
			mu.Unlock()
		})
		m, err := mapping.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Execute(g, opts); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mu.Lock()
		defer mu.Unlock()
		sort.Strings(got)
		return got
	}

	want := run("simple", mapping.Options{Processes: 1, Platform: platformForTest(), Seed: 31}, 0)
	if len(want) != len(keys) {
		t.Fatalf("reference flush: %v", want)
	}

	opts := mapping.Options{
		Processes:    3,
		Platform:     platformForTest(),
		Seed:         31,
		RedisAddr:    srv.Addr(),
		RecoverStale: true, // implies ExactlyOnceState for the managed PE
		PollTimeout:  time.Millisecond,
		Retries:      60,
	}
	got := run("dyn_redis", opts, 4*time.Millisecond)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("aggregates diverge under live replay:\n got %v\nwant %v", got, want)
	}
}
