package runtime_test

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/miniredis"
	"repro/internal/mpi"
	"repro/internal/redisclient"
	"repro/internal/runtime"
)

// transportFixture builds one transport kind over a single-worker plan: the
// chan, redis and rank transports exercise their pinned delivery path, the
// queue transport its pool path — together covering every route of the four
// transports. addr is a task template addressed to the fixture's worker 0.
// breakRelease, where a release can fail at all, makes the transport's next
// release fail before it reaches the queue; the in-process transports'
// releases are counter adjustments that cannot fail, so theirs is nil.
type transportFixture struct {
	name string
	make func(t *testing.T) (tr runtime.Transport, addr runtime.Task, breakRelease func())
}

func transportFixtures() []transportFixture {
	pinnedPlan := func() runtime.Plan {
		return runtime.NewPlan([]runtime.WorkerSpec{{PE: "pe", Instance: 0}}, map[string]int{"pe": 1})
	}
	return []transportFixture{
		{name: "chan", make: func(t *testing.T) (runtime.Transport, runtime.Task, func()) {
			tr, err := runtime.NewChanTransport(pinnedPlan())
			if err != nil {
				t.Fatal(err)
			}
			return tr, runtime.Task{PE: "pe", Port: "in", Instance: 0}, nil
		}},
		{name: "queue", make: func(t *testing.T) (runtime.Transport, runtime.Task, func()) {
			return runtime.NewQueueTransport(runtime.NewQueue(0)), runtime.Task{PE: "pe", Port: "in", Instance: -1}, nil
		}},
		{name: "redis", make: func(t *testing.T) (runtime.Transport, runtime.Task, func()) {
			srv, err := miniredis.StartTestServer()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			cl := redisclient.Dial(srv.Addr())
			t.Cleanup(func() { cl.Close() })
			// The next write carrying an XACK fails: the release and the
			// read pipelined behind it never reach the server.
			var failXAck atomic.Bool
			cl.Dialer = tapDialer(func(p []byte) error {
				if bytes.Contains(p, []byte("XACK")) && failXAck.CompareAndSwap(true, false) {
					return errors.New("injected release failure")
				}
				return nil
			})
			tr, err := runtime.NewRedisTransport(redisclient.Single(cl), runtime.NewRunKeys("tconf", 1), pinnedPlan(), false)
			if err != nil {
				t.Fatal(err)
			}
			return tr, runtime.Task{PE: "pe", Port: "in", Instance: 0}, func() { failXAck.Store(true) }
		}},
		{name: "rank", make: func(t *testing.T) (runtime.Transport, runtime.Task, func()) {
			world, err := mpi.NewWorld(1)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(world.Close)
			tr, err := runtime.NewRankTransport(world, pinnedPlan())
			if err != nil {
				t.Fatal(err)
			}
			return tr, runtime.Task{PE: "pe", Port: "in", Instance: 0}, nil
		}},
	}
}

// TestTransportsHoldTerminationUntilDrained is the transport-level
// termination conformance property: with a deliberately slow consumer, the
// drain check the coordinator gates poison pills on must not pass while any
// task is queued or in flight — across all four transports. A violation is
// exactly the bug class the per-mapping protocols used to guard against
// individually: a worker exiting while tasks are pending.
func TestTransportsHoldTerminationUntilDrained(t *testing.T) {
	const n = 20
	for _, fx := range transportFixtures() {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			tr, addr, _ := fx.make(t)

			tasks := make([]runtime.Task, n)
			for i := range tasks {
				task := addr
				task.Value = i
				tasks[i] = task
			}
			if err := tr.Push(tasks...); err != nil {
				t.Fatal(err)
			}

			var processed atomic.Int64
			go func() {
				for {
					envs, err := tr.PullBatch(0, 1, 2*time.Millisecond)
					if err != nil {
						return
					}
					if len(envs) == 0 {
						continue
					}
					// Slow consumer: the task stays in flight long enough
					// for many drain polls to observe it.
					time.Sleep(3 * time.Millisecond)
					processed.Add(int64(len(envs)))
					if err := tr.Ack(0, envs...); err != nil {
						return
					}
					if processed.Load() == n {
						return
					}
				}
			}()

			if err := runtime.AwaitDrain(tr, time.Millisecond, 3, nil); err != nil {
				t.Fatal(err)
			}
			if got := processed.Load(); got != n {
				t.Fatalf("drain passed with %d of %d tasks processed — workers would exit with tasks pending", got, n)
			}
			if p, err := tr.Pending(); err != nil || p != 0 {
				t.Fatalf("pending after drain: %d (%v)", p, err)
			}
			_ = tr.Done()
		})
	}
}

// TestTransportsHoldTerminationWithPrefetch extends the conformance
// property to the batched consume path: a slow consumer that pulls windows
// of several tasks and parks them in a non-empty prefetch buffer — acking
// the whole batch only after the last task is processed — must never let
// the coordinator's drain pass early, on all four transports. This is the
// invariant that makes prefetching safe: pulled-but-unacknowledged tasks
// still count as pending.
func TestTransportsHoldTerminationWithPrefetch(t *testing.T) {
	const n = 24
	const window = 8
	for _, fx := range transportFixtures() {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			tr, addr, _ := fx.make(t)

			tasks := make([]runtime.Task, n)
			for i := range tasks {
				task := addr
				task.Value = i
				tasks[i] = task
			}
			if err := tr.Push(tasks...); err != nil {
				t.Fatal(err)
			}

			var acked atomic.Int64
			go func() {
				for acked.Load() < n {
					// max is advisory: a batch-framed transport may return
					// more than window tasks; hold however many arrived.
					envs, err := tr.PullBatch(0, window, 2*time.Millisecond)
					if err != nil {
						return
					}
					if len(envs) == 0 {
						continue
					}
					// The whole batch sits in the prefetch buffer while each
					// task is slowly processed; many drain polls observe the
					// buffer non-empty with the queue itself already short.
					for range envs {
						time.Sleep(time.Millisecond)
					}
					if err := tr.Ack(0, envs...); err != nil {
						return
					}
					acked.Add(int64(len(envs)))
				}
			}()

			if err := runtime.AwaitDrain(tr, time.Millisecond, 3, nil); err != nil {
				t.Fatal(err)
			}
			if got := acked.Load(); got != n {
				t.Fatalf("drain passed with %d of %d tasks acknowledged — a prefetch buffer would be dropped at termination", got, n)
			}
			if p, err := tr.Pending(); err != nil || p != 0 {
				t.Fatalf("pending after drain: %d (%v)", p, err)
			}
			_ = tr.Done()
		})
	}
}

// TestTransportsCountInFlightTasks pins the finer-grained half of the
// contract: a task that has been pulled but not acknowledged is still
// pending, even though the queue itself is empty.
func TestTransportsCountInFlightTasks(t *testing.T) {
	for _, fx := range transportFixtures() {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			tr, addr, _ := fx.make(t)
			if err := tr.Push(addr); err != nil {
				t.Fatal(err)
			}
			envs, err := tr.PullBatch(0, 1, 50*time.Millisecond)
			if err != nil || len(envs) != 1 {
				t.Fatalf("pull: envs=%v err=%v", envs, err)
			}
			// Queue empty, task in flight: must still count as pending.
			if p, err := tr.Pending(); err != nil || p != 1 {
				t.Fatalf("in-flight pending = %d (%v), want 1", p, err)
			}
			if err := tr.Ack(0, envs[0]); err != nil {
				t.Fatal(err)
			}
			if p, err := tr.Pending(); err != nil || p != 0 {
				t.Fatalf("post-ack pending = %d (%v), want 0", p, err)
			}
			_ = tr.Done()
		})
	}
}

// pullN pulls until n tasks have been delivered to worker 0.
func pullN(t *testing.T, tr runtime.Transport, n int) []runtime.Env {
	t.Helper()
	var envs []runtime.Env
	for i := 0; i < 50 && len(envs) < n; i++ {
		got, err := tr.PullBatch(0, n-len(envs), 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		envs = append(envs, got...)
	}
	if len(envs) != n {
		t.Fatalf("pulled %d tasks, want %d", len(envs), n)
	}
	return envs
}

// wantPending fails unless the transport counts exactly n pending tasks.
func wantPending(t *testing.T, tr runtime.Transport, n int64, when string) {
	t.Helper()
	if p, err := tr.Pending(); err != nil || p != n {
		t.Fatalf("pending %s = %d (%v), want %d", when, p, err, n)
	}
}

// TestTransportsReleaseOnPull pins the release half of PullBatch on all four
// transports: the tasks handed to a pull are released exactly as Ack would
// release them, even when the pull itself times out empty, and a release
// that fails is reported without pulling — the queued task stays for the
// next pull.
func TestTransportsReleaseOnPull(t *testing.T) {
	for _, fx := range transportFixtures() {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			tr, addr, breakRelease := fx.make(t)
			defer tr.Done()
			tasks := make([]runtime.Task, 3)
			for i := range tasks {
				tasks[i] = addr
				tasks[i].Value = i
			}
			if err := tr.Push(tasks...); err != nil {
				t.Fatal(err)
			}
			envs := pullN(t, tr, 3)
			wantPending(t, tr, 3, "with three tasks in flight")
			got, err := tr.PullBatch(0, 4, 5*time.Millisecond, envs[0])
			if err != nil || len(got) != 0 {
				t.Fatalf("pull releasing one task: %d envs, %v", len(got), err)
			}
			wantPending(t, tr, 2, "after a pull released one task")
			if got, err = tr.PullBatch(0, 4, 5*time.Millisecond, envs[1:]...); err != nil || len(got) != 0 {
				t.Fatalf("pull releasing two tasks: %d envs, %v", len(got), err)
			}
			wantPending(t, tr, 0, "after a pull released the rest")

			if breakRelease == nil {
				return
			}
			if err := tr.Push(addr); err != nil {
				t.Fatal(err)
			}
			held := pullN(t, tr, 1)
			if err := tr.Push(addr); err != nil {
				t.Fatal(err)
			}
			breakRelease()
			if got, err = tr.PullBatch(0, 4, 5*time.Millisecond, held...); err == nil || got != nil {
				t.Fatalf("pull with a failing release: %d envs, err %v; want the error and no tasks", len(got), err)
			}
			wantPending(t, tr, 2, "after a failed release")
			queued := pullN(t, tr, 1)
			if err := tr.Ack(0, append(held, queued...)...); err != nil {
				t.Fatal(err)
			}
			wantPending(t, tr, 0, "after both were acked")
		})
	}
}

// TestSeedHelpersStable pins the deduplicated FNV helpers: stable across
// calls, distinct across instances and PE names.
func TestSeedHelpersStable(t *testing.T) {
	if runtime.InstanceSeed("getVOTable", 0) != runtime.InstanceSeed("getVOTable", 0) {
		t.Error("InstanceSeed not stable")
	}
	if runtime.InstanceSeed("getVOTable", 0) == runtime.InstanceSeed("getVOTable", 1) {
		t.Error("InstanceSeed must differ across instances")
	}
	if runtime.InstanceSeed("getVOTable", 0) == runtime.InstanceSeed("filterColumns", 0) {
		t.Error("InstanceSeed must differ across PEs")
	}
	if runtime.NodeHash("a") != graph.Hash32("a") || runtime.NodeHash("a") == runtime.NodeHash("b") {
		t.Error("NodeHash must be the graph FNV hash")
	}
}

// TestPinnedTransportsRejectPool checks that the static transports have no
// shared pool: a plan with pool workers is refused at construction, and a
// task addressed to the pool (Instance < 0) is refused at push.
func TestPinnedTransportsRejectPool(t *testing.T) {
	poolPlan := runtime.NewPlan(make([]runtime.WorkerSpec, 2), map[string]int{"pe": 0})
	pinned := runtime.NewPlan([]runtime.WorkerSpec{{PE: "pe", Instance: 0}}, map[string]int{"pe": 1})
	world, err := mpi.NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(world.Close)
	for name, build := range map[string]func(runtime.Plan) (runtime.Transport, error){
		"chan": func(p runtime.Plan) (runtime.Transport, error) { return runtime.NewChanTransport(p) },
		"rank": func(p runtime.Plan) (runtime.Transport, error) { return runtime.NewRankTransport(world, p) },
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := build(poolPlan); err == nil {
				t.Error("pool plan accepted")
			}
			tr, err := build(pinned)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Done()
			if err := tr.Push(runtime.Task{PE: "pe", Port: "in", Instance: -1}); err == nil {
				t.Error("pool task accepted")
			}
			if p, _ := tr.Pending(); p != 0 {
				t.Errorf("pending = %d after a refused push, want 0", p)
			}
		})
	}
}
