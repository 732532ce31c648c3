package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/platform"
)

// Queue is the dynamic global queue of the dyn[_auto]_multi rows. Every
// operation holds the queue lock for the platform's synchronization cost, so
// contending workers serialize exactly as processes serialize on a
// multiprocessing.Queue — the overhead that makes total process time creep
// upward with larger active pools. PushAll pays that cost once per batch,
// which is what batched emission amortizes on the in-process path.
type Queue struct {
	mu       sync.Mutex
	items    []Task
	syncCost time.Duration
	pushes   int64
	pops     int64
}

// NewQueue creates a queue with the given per-op synchronization cost.
func NewQueue(syncCost time.Duration) *Queue {
	return &Queue{syncCost: syncCost}
}

// Push appends a task. Waiting poppers notice on their next poll slice (see
// Pop); there is no wakeup signal to deliver.
func (q *Queue) Push(t Task) {
	q.mu.Lock()
	platform.SpinWait(q.syncCost)
	q.items = append(q.items, t)
	q.pushes++
	q.mu.Unlock()
}

// PushAll appends a batch of tasks under one lock hold and one
// synchronization cost, preserving order.
func (q *Queue) PushAll(ts []Task) {
	if len(ts) == 0 {
		return
	}
	q.mu.Lock()
	platform.SpinWait(q.syncCost)
	q.items = append(q.items, ts...)
	q.pushes += int64(len(ts))
	q.mu.Unlock()
}

// Pop removes the head task, blocking up to timeout when the queue is
// empty. ok is false on timeout.
func (q *Queue) Pop(timeout time.Duration) (t Task, ok bool) {
	deadline := time.Now().Add(timeout)
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return Task{}, false
		}
		// Empty-queue waiters poll in small slices (there is deliberately no
		// condition-variable wakeup: workers must return to their loop to
		// run the termination protocol anyway). The slice is a fraction of
		// the poll timeout to keep wake-up latency low without busy-spinning.
		q.mu.Unlock()
		slice := remaining
		if slice > time.Millisecond {
			slice = time.Millisecond
		}
		time.Sleep(slice)
		q.mu.Lock()
	}
	platform.SpinWait(q.syncCost)
	t = q.items[0]
	q.items = q.items[1:]
	q.pops++
	return t, true
}

// PopN removes up to max head tasks under one lock hold and one
// synchronization cost — the single-lock multi-dequeue that mirrors PushAll
// on the consume path. Like Pop it blocks up to timeout for the first task
// and never waits for more; a poison pill ends its batch (the pill is the
// last element returned) so sibling pool workers keep their pills visible.
func (q *Queue) PopN(max int, timeout time.Duration) []Task {
	if max < 1 {
		max = 1
	}
	deadline := time.Now().Add(timeout)
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil
		}
		// Same empty-queue poll slices as Pop (see there for why no condvar).
		q.mu.Unlock()
		slice := remaining
		if slice > time.Millisecond {
			slice = time.Millisecond
		}
		time.Sleep(slice)
		q.mu.Lock()
	}
	platform.SpinWait(q.syncCost)
	n := max
	if n > len(q.items) {
		n = len(q.items)
	}
	out := make([]Task, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, q.items[i])
		if q.items[i].Poison {
			break
		}
	}
	q.items = q.items[len(out):]
	q.pops += int64(len(out))
	return out
}

// Len returns the current queue length (the dyn_auto_multi monitor metric).
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Ops reports total pushes and pops, for tests and diagnostics.
func (q *Queue) Ops() (pushes, pops int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pushes, q.pops
}

// QueueTransport runs a dynamic pool over the in-process global queue. It
// supports pool routing only: every worker is interchangeable, so tasks
// addressed to a pinned instance are a planning error.
type QueueTransport struct {
	q       *Queue
	pending atomic.Int64
	closed  atomic.Bool
}

// NewQueueTransport wraps a Queue as a Transport. The queue is shared so the
// planner can also hand it to an autoscale monitor (queue-size strategy).
func NewQueueTransport(q *Queue) *QueueTransport {
	return &QueueTransport{q: q}
}

// Push implements Transport.
func (t *QueueTransport) Push(tasks ...Task) error {
	for _, task := range tasks {
		if task.Instance >= 0 && !task.Poison {
			return fmt.Errorf("runtime: queue transport cannot address pinned instance %s[%d]", task.PE, task.Instance)
		}
		if !task.Poison {
			t.pending.Add(1)
		}
	}
	t.q.PushAll(tasks)
	return nil
}

// PullBatch implements Transport: after the release, one multi-dequeue pays
// one lock hold and one modeled synchronization cost for the whole window.
func (t *QueueTransport) PullBatch(w, max int, timeout time.Duration, release ...Env) ([]Env, error) {
	if err := t.Ack(w, release...); err != nil {
		return nil, err
	}
	if t.closed.Load() {
		return nil, errTransportClosed
	}
	tasks := t.q.PopN(max, timeout)
	if len(tasks) == 0 {
		return nil, nil
	}
	envs := make([]Env, len(tasks))
	for i, task := range tasks {
		envs[i] = Env{Task: task}
	}
	return envs, nil
}

// Ack implements Transport.
func (t *QueueTransport) Ack(w int, envs ...Env) error {
	var n int64
	for _, env := range envs {
		if !env.Poison {
			n++
		}
	}
	if n > 0 {
		t.pending.Add(-n)
	}
	return nil
}

// Pending implements Transport.
func (t *QueueTransport) Pending() (int64, error) { return t.pending.Load(), nil }

// QueueDepths implements DepthReporter.
func (t *QueueTransport) QueueDepths() map[string]int64 {
	return map[string]int64{"queue": int64(t.q.Len())}
}

// Done implements Transport.
func (t *QueueTransport) Done() error {
	t.closed.Store(true)
	return nil
}
