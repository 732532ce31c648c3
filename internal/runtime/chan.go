package runtime

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// errTransportClosed reports an operation on a transport after Done. The
// worker loop treats it as a shutdown signal, not a workflow failure.
var errTransportClosed = errors.New("runtime: transport closed")

// IsClosed reports whether err is the transport-shutdown sentinel.
func IsClosed(err error) bool { return errors.Is(err, errTransportClosed) }

// ChanTransport carries tasks over in-process channels: one bounded channel
// per pinned worker (the multi mapping's per-instance input queue, with the
// same backpressure). Like RankTransport it has no shared pool.
type ChanTransport struct {
	plan    Plan
	boxes   []chan Task // per worker index
	pending atomic.Int64
	closed  chan struct{}
	once    sync.Once
}

// chanBuffer is the capacity of each instance channel.
const chanBuffer = 256

// NewChanTransport builds one channel per worker. The plan must be fully
// pinned.
func NewChanTransport(plan Plan) (*ChanTransport, error) {
	if plan.Pool > 0 {
		return nil, fmt.Errorf("runtime: chan transport supports pinned workers only (plan has %d pool workers)", plan.Pool)
	}
	t := &ChanTransport{
		plan:   plan,
		boxes:  make([]chan Task, len(plan.Workers)),
		closed: make(chan struct{}),
	}
	for w := range t.boxes {
		t.boxes[w] = make(chan Task, chanBuffer)
	}
	return t, nil
}

// Push implements Transport. Sends block when the destination buffer is full
// (backpressure) and abandon on shutdown to avoid deadlocking a failed run.
func (t *ChanTransport) Push(tasks ...Task) error {
	for _, task := range tasks {
		if task.Instance < 0 {
			return fmt.Errorf("runtime: chan transport has no shared pool to route %s to", task.PE)
		}
		w, ok := t.plan.WorkerFor(task.PE, task.Instance)
		if !ok {
			return fmt.Errorf("runtime: no pinned worker for %s[%d]", task.PE, task.Instance)
		}
		if !task.Poison {
			t.pending.Add(1)
		}
		select {
		case t.boxes[w] <- task:
		case <-t.closed:
			return errTransportClosed
		}
	}
	return nil
}

// PullBatch implements Transport: after the release, a blocking wait for the
// first task, then buffered draining — whatever is already queued joins the
// batch without further blocking. A poison pill ends its batch.
func (t *ChanTransport) PullBatch(w, max int, timeout time.Duration, release ...Env) ([]Env, error) {
	if err := t.Ack(w, release...); err != nil {
		return nil, err
	}
	if max < 1 {
		max = 1
	}
	src := t.boxes[w]
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	var envs []Env
	select {
	case task := <-src:
		envs = append(envs, Env{Task: task})
		if task.Poison {
			return envs, nil
		}
	case <-timer.C:
		return nil, nil
	case <-t.closed:
		return nil, errTransportClosed
	}
	for len(envs) < max {
		select {
		case task := <-src:
			envs = append(envs, Env{Task: task})
			if task.Poison {
				return envs, nil
			}
		default:
			return envs, nil
		}
	}
	return envs, nil
}

// Ack implements Transport.
func (t *ChanTransport) Ack(w int, envs ...Env) error {
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
func (t *ChanTransport) Pending() (int64, error) { return t.pending.Load(), nil }

// QueueDepths implements DepthReporter: one "box:<pe>:<i>" entry per
// instance channel.
func (t *ChanTransport) QueueDepths() map[string]int64 {
	out := make(map[string]int64, len(t.boxes))
	for w, box := range t.boxes {
		spec := t.plan.Workers[w]
		out[fmt.Sprintf("box:%s:%d", spec.PE, spec.Instance)] = int64(len(box))
	}
	return out
}

// Done implements Transport.
func (t *ChanTransport) Done() error {
	t.once.Do(func() { close(t.closed) })
	return nil
}
