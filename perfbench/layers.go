package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/diagnosis"
	"repro/internal/graph"
	"repro/internal/redisclient"
	"repro/internal/resp"
	"repro/internal/runtime"
	"repro/internal/telemetry"
)

// The traced run measures each layer from outside, by timing calls into the
// layer's public functions or by observing its traffic, and reconciles the
// per-event layer costs against the untraced run's CPU per event.

// perLayer lists every per-layer metric with its unit; every traced run
// reports all of them. A layer a workload does not exercise reads 0 (or,
// for the static-baseline ratios, 1). e2e.p99_ms is the end-to-end tail
// latency: on a 2-vCPU VM its run-to-run spread exceeded a quarter of its
// median, too wide for a regression bound, so it is reported here without
// one.
var perLayer = []struct{ name, unit string }{
	{"e2e.p99_ms", "ms"},
	{"gen.late_p99_ms", "ms"},
	{"gen.offered_frac", "ratio"},
	{"codec.encode_ns_per_task", "ns"},
	{"codec.decode_ns_per_task", "ns"},
	{"codec.bytes_per_task", "bytes"},
	{"codec.allocs_per_task", "count"},
	{"resp.write_ns_per_cmd", "ns"},
	{"resp.read_ns_per_reply", "ns"},
	{"redisclient.pipeline_us.xadd", "us"},
	{"redisclient.pipeline_us.xreadgroup", "us"},
	{"redisclient.pipeline_us.xack", "us"},
	{"redisclient.pipeline_us.hincrby", "us"},
	{"redisclient.pipeline_us.fenceapply", "us"},
	{"redisclient.pipeline_us.fencexack", "us"},
	{"redisclient.round_trips_per_event", "count"},
	{"redisclient.retries", "count"},
	{"miniredis.commands_per_event", "count"},
	{"miniredis.bytes_per_event", "bytes"},
	{"miniredis.stream_entries_end", "count"},
	{"miniredis.ledger_fields_end", "count"},
	{"runtime.push_ns_per_task", "ns"},
	{"runtime.pull_ns_per_task", "ns"},
	{"runtime.ack_ns_per_task", "ns"},
	{"runtime.pull_us_p99", "us"},
	{"runtime.ack_us_p99", "us"},
	{"runtime.emit_flush_us_p99", "us"},
	{"runtime.tasks_per_pull", "count"},
	{"runtime.idle_polls_per_event", "count"},
	{"runtime.backlog_max", "count"},
	{"state.ops_per_event", "count"},
	{"state.addint_us_p50", "us"},
	{"state.addint_us_p99", "us"},
	{"state.fence_drops", "count"},
	{"autoscale.mean_active", "count"},
	{"autoscale.resizes", "count"},
	{"autoscale.makespan_vs_static", "ratio"},
	{"autoscale.process_vs_static", "ratio"},
	{"platform.ideal_makespan_s", "s"},
	{"ledger.explained_frac", "ratio"},
	{"telemetry.overhead_frac", "ratio"},
	{"baseline.simple_events_per_s", "events/s"},
}

// layerValues collects per-layer values by name; fill turns them into the
// result, defaulting anything unset to 0. Keys outside perLayer are inputs
// to the ledger only.
type layerValues map[string]float64

func (lv layerValues) fill(res *result) {
	for _, m := range perLayer {
		res.set(m.name, m.unit, lv[m.name])
	}
}

// Ledger inputs that are not reported: the round trip of an XREADGROUP
// that finds nothing, and the p99 of direct FENCEAPPLY INCR round trips.
const (
	emptyPollUS     = "ledger.empty_poll_us"
	fenceApplyP99US = "ledger.fenceapply_p99_us"
)

// newTelemetry is the traced run's instrumentation: the live registry with
// flight recording (for the backlog gauge) and the diagnosis plane.
func newTelemetry() (*telemetry.Registry, *diagnosis.Diag) {
	return telemetry.New(telemetry.Config{FlightRing: 1024}), diagnosis.New(diagnosis.Config{})
}

// readTelemetry extracts the worker-loop and state-layer metrics from a
// traced run's registry. events is the number of events the run offered.
func readTelemetry(lv layerValues, reg *telemetry.Registry, events float64) {
	snap := reg.Snapshot()
	w := snap.Workers
	lv["runtime.pull_us_p99"] = float64(w.Pull.P99) / 1e3
	lv["runtime.ack_us_p99"] = float64(w.Ack.P99) / 1e3
	lv["runtime.emit_flush_us_p99"] = float64(w.EmitFlush.P99) / 1e3
	lv["runtime.tasks_per_pull"] = w.PullBatch.Mean
	lv["runtime.idle_polls_per_event"] = float64(w.IdlePolls) / events
	backlog := int64(0)
	for _, f := range append(reg.Flights(), snap) {
		if v := f.Gauges["transport.pending"]; v > backlog {
			backlog = v
		}
	}
	lv["runtime.backlog_max"] = float64(backlog)
	if snap.State != nil {
		add := snap.State.Ops["add"]
		lv["state.addint_us_p50"] = float64(add.P50) / 1e3
		lv["state.addint_us_p99"] = float64(add.P99) / 1e3
		lv["state.fence_drops"] = float64(snap.State.FenceDrops)
	}
}

// directStateLatency fills the state-op latencies of a workload that does
// no state operations with the direct FENCEAPPLY INCR round trip (the
// command a fenced AddInt issues), so the layer still reads as measured.
func directStateLatency(lv layerValues) {
	if lv["state.ops_per_event"] > 0 {
		return
	}
	lv["state.addint_us_p50"] = lv["redisclient.pipeline_us.fenceapply"]
	lv["state.addint_us_p99"] = lv[fenceApplyP99US]
}

// keySampler polls the data plane while a run is live (the run deletes its
// streams and state hashes at teardown): stream entries across the run's
// streams and fence-ledger fields across its state hashes, keeping the last
// sample taken before teardown.
type keySampler struct {
	cl      *redisclient.Client
	stop    chan struct{}
	done    sync.WaitGroup
	entries atomic.Int64
	ledger  atomic.Int64
}

const fencePrefix = "\x00fence:"

func startKeySampler(addr string) *keySampler {
	s := &keySampler{cl: redisclient.Dial(addr), stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *keySampler) sample() {
	// miniredis matches KEYS patterns segment-wise on '/', so the state
	// hashes (whose namespace is "workflow/pe") need their own pattern.
	var keys []resp.Value
	for _, pat := range []string{"*", "*/*"} {
		v, err := s.cl.Do("KEYS", pat)
		if err != nil {
			return
		}
		keys = append(keys, v.Array...)
	}
	var entries, ledger int64
	live := false
	for _, k := range keys {
		key := k.Str
		switch {
		case strings.HasSuffix(key, ":queue") || strings.Contains(key, ":priv:"):
			if n, err := s.cl.XLen(key); err == nil {
				entries += n
				live = true
			}
		case strings.Contains(key, ":st:{"):
			fields, err := s.cl.HKeys(key)
			if err != nil {
				continue
			}
			for _, f := range fields {
				if strings.HasPrefix(f, fencePrefix) {
					ledger++
				}
			}
		}
	}
	if live {
		s.entries.Store(entries)
		s.ledger.Store(ledger)
	}
}

func (s *keySampler) Stop() (entries, ledger int64) {
	close(s.stop)
	s.done.Wait()
	s.cl.Close()
	return s.entries.Load(), s.ledger.Load()
}

// countingProxy forwards TCP connections to a Redis server, counting bytes
// in both directions and the client's write bursts. A client flushes one
// pipeline per round trip, so each read the proxy completes from a client
// socket approximates one round trip (a pipeline larger than the socket
// buffer counts more than once).
type countingProxy struct {
	ln     net.Listener
	target string
	bytes  atomic.Int64
	bursts atomic.Int64
	conns  sync.WaitGroup
	mu     sync.Mutex
	open   []net.Conn
}

func startProxy(target string) (*countingProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("proxy listen: %w", err)
	}
	p := &countingProxy{ln: ln, target: target}
	p.conns.Add(1)
	go func() {
		defer p.conns.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				c.Close()
				continue
			}
			p.mu.Lock()
			p.open = append(p.open, c, up)
			p.mu.Unlock()
			p.conns.Add(2)
			go p.pipe(up, c, true)
			go p.pipe(c, up, false)
		}
	}()
	return p, nil
}

func (p *countingProxy) pipe(dst, src net.Conn, fromClient bool) {
	defer p.conns.Done()
	buf := make([]byte, 64<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			p.bytes.Add(int64(n))
			if fromClient {
				p.bursts.Add(1)
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	dst.Close()
	src.Close()
}

func (p *countingProxy) Addr() string { return p.ln.Addr().String() }

func (p *countingProxy) Close() {
	p.ln.Close()
	p.mu.Lock()
	for _, c := range p.open {
		c.Close()
	}
	p.mu.Unlock()
	p.conns.Wait()
}

// timeLoop runs fn repeatedly for about d and returns the mean ns per call.
func timeLoop(d time.Duration, fn func()) float64 {
	n := 0
	t0 := time.Now()
	for time.Since(t0) < d {
		for i := 0; i < 64; i++ {
			fn()
		}
		n += 64
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// callTimes times each of n calls of fn and returns the durations in µs,
// sorted.
func callTimes(n int, fn func() error) ([]float64, error) {
	s := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		s = append(s, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	sort.Float64s(s)
	return s, nil
}

// medianCall times each of n calls of fn and returns the median in µs.
func medianCall(n int, fn func() error) (float64, error) {
	s, err := callTimes(n, fn)
	return median(s), err
}

// benchCodec measures AppendBatch/DecodeBatch on the workload's tasks at
// the given batch size.
func benchCodec(lv layerValues, tasks []codec.Task) error {
	frame, err := codec.AppendBatch(nil, tasks)
	if err != nil {
		return fmt.Errorf("codec: %w", err)
	}
	var encErr, decErr error
	buf := make([]byte, 0, 2*len(frame))
	enc := func() {
		if buf, err = codec.AppendBatch(buf[:0], tasks); err != nil {
			encErr = err
		}
	}
	s := string(frame)
	dec := func() {
		if _, err := codec.DecodeBatch(s); err != nil {
			decErr = err
		}
	}
	b := float64(len(tasks))
	lv["codec.encode_ns_per_task"] = timeLoop(200*time.Millisecond, enc) / b
	lv["codec.decode_ns_per_task"] = timeLoop(200*time.Millisecond, dec) / b
	lv["codec.bytes_per_task"] = float64(len(frame)) / b
	lv["codec.allocs_per_task"] = (testing.AllocsPerRun(200, enc) + testing.AllocsPerRun(200, dec)) / b
	if encErr != nil || decErr != nil {
		return fmt.Errorf("codec: encode %v, decode %v", encErr, decErr)
	}
	return nil
}

// benchResp measures RESP encoding of the XADD the transport issues for one
// packed frame and parsing of the XREADGROUP reply that delivers it.
func benchResp(lv layerValues, frame string) error {
	w := resp.NewWriter(io.Discard)
	argv := []string{"XADD", "d4p:bench:queue", "*", "task", frame}
	var werr error
	lv["resp.write_ns_per_cmd"] = timeLoop(200*time.Millisecond, func() {
		if err := w.WriteCommandBuffered(argv...); err != nil {
			werr = err
		}
	})
	if err := w.Flush(); err != nil || werr != nil {
		return fmt.Errorf("resp write: %v %v", werr, err)
	}
	reply := resp.Arr(resp.Arr(resp.Str("d4p:bench:queue"),
		resp.Arr(resp.Arr(resp.Str("1700000000000-0"), resp.StrArray("task", frame)))))
	var one bytes.Buffer
	rw := resp.NewWriter(&one)
	if err := rw.WriteValue(reply); err != nil {
		return err
	}
	if err := rw.Flush(); err != nil {
		return err
	}
	const copies = 4096
	stream := bytes.Repeat(one.Bytes(), copies)
	var rerr error
	var r *resp.Reader
	left := 0
	lv["resp.read_ns_per_reply"] = timeLoop(200*time.Millisecond, func() {
		if left == 0 {
			r = resp.NewReader(bytes.NewReader(stream))
			left = copies
		}
		if _, err := r.ReadValue(); err != nil {
			rerr = err
		}
		left--
	})
	if rerr != nil {
		return fmt.Errorf("resp read: %w", rerr)
	}
	return nil
}

// benchClient times one round trip of each command shape the system issues
// against a fresh key space on the given server.
func benchClient(lv layerValues, addr string, frame string) error {
	cl := redisclient.Dial(addr)
	defer cl.Close()
	const calls = 300
	key := "bench:layers:stream"
	if err := cl.XGroupCreate(key, "g", "0"); err != nil {
		return err
	}
	var err error
	if lv["redisclient.pipeline_us.xadd"], err = medianCall(calls, func() error {
		_, err := cl.XAddValues(key, "task", frame)
		return err
	}); err != nil {
		return fmt.Errorf("xadd: %w", err)
	}
	// The transport packs a batch into one entry, so one delivery reads one
	// entry; an idle poll is the same read finding nothing.
	var ids []string
	if lv["redisclient.pipeline_us.xreadgroup"], err = medianCall(calls, func() error {
		es, err := cl.XReadGroup("g", "c", 1, 0, key)
		for _, e := range es {
			ids = append(ids, e.ID)
		}
		return err
	}); err != nil {
		return fmt.Errorf("xreadgroup: %w", err)
	}
	if lv[emptyPollUS], err = medianCall(calls, func() error {
		_, err := cl.XReadGroup("g", "c", 1, 0, key)
		return err
	}); err != nil {
		return fmt.Errorf("xreadgroup: %w", err)
	}
	half := len(ids) / 2
	i := 0
	if lv["redisclient.pipeline_us.xack"], err = medianCall(half, func() error {
		_, err := cl.XAck(key, "g", ids[i])
		i++
		return err
	}); err != nil {
		return fmt.Errorf("xack: %w", err)
	}
	if lv["redisclient.pipeline_us.fencexack"], err = medianCall(len(ids)-half, func() error {
		_, _, _, err := cl.FenceXAck(key, "g", "c", "bench:layers:pending", 0, []string{ids[i]}, []int64{1})
		i++
		return err
	}); err != nil {
		return fmt.Errorf("fencexack: %w", err)
	}
	n := 0
	if lv["redisclient.pipeline_us.hincrby"], err = medianCall(calls, func() error {
		n++
		_, err := cl.HIncrBy("bench:layers:hash", "u"+strconv.Itoa(n%97), 1)
		return err
	}); err != nil {
		return fmt.Errorf("hincrby: %w", err)
	}
	fenced, err := callTimes(calls, func() error {
		n++
		_, _, err := cl.FenceApplyIncr("bench:layers:fenced", fencePrefix+strconv.Itoa(n), "u"+strconv.Itoa(n%97), 1)
		return err
	})
	if err != nil {
		return fmt.Errorf("fenceapply: %w", err)
	}
	lv["redisclient.pipeline_us.fenceapply"] = median(fenced)
	lv[fenceApplyP99US] = fenced[len(fenced)*99/100]
	// The engine's own clients keep their Stats private to the run, so
	// retries are those of this client's calls.
	lv["redisclient.retries"] = float64(cl.Stats().Retries)
	_, err = cl.Del(key, "bench:layers:pending", "bench:layers:hash", "bench:layers:fenced")
	return err
}

// benchTransport drives a RedisTransport directly: push a batch of tasks,
// pull them back, acknowledge them, and report each step's ns per task.
func benchTransport(lv layerValues, addr string, tasks []codec.Task) error {
	cluster, err := redisclient.NewCluster([]string{addr})
	if err != nil {
		return err
	}
	defer cluster.Close()
	g := graph.New("bench_transport")
	g.Add(func() core.PE { return core.NewSink(tasks[0].PE, func(*core.Context, any) error { return nil }) })
	tr, err := runtime.NewRedisTransport(cluster, runtime.NewRunKeys(g.Name, 1), runtime.PoolPlan(g, 1), false)
	if err != nil {
		return err
	}
	defer tr.Cleanup(g)
	var push, pull, ack time.Duration
	moved := 0
	deadline := time.Now().Add(600 * time.Millisecond)
	for time.Now().Before(deadline) {
		t0 := time.Now()
		if err := tr.Push(tasks...); err != nil {
			return fmt.Errorf("push: %w", err)
		}
		t1 := time.Now()
		var envs []runtime.Env
		for len(envs) < len(tasks) {
			got, err := tr.PullBatch(0, len(tasks)-len(envs), 100*time.Millisecond)
			if err != nil {
				return fmt.Errorf("pull: %w", err)
			}
			if got == nil {
				return fmt.Errorf("pull: timed out with %d of %d tasks", len(envs), len(tasks))
			}
			envs = append(envs, got...)
		}
		t2 := time.Now()
		if err := tr.Ack(0, envs...); err != nil {
			return fmt.Errorf("ack: %w", err)
		}
		ack += time.Since(t2)
		pull += t2.Sub(t1)
		push += t1.Sub(t0)
		moved += len(tasks)
	}
	lv["runtime.push_ns_per_task"] = float64(push.Nanoseconds()) / float64(moved)
	lv["runtime.pull_ns_per_task"] = float64(pull.Nanoseconds()) / float64(moved)
	lv["runtime.ack_ns_per_task"] = float64(ack.Nanoseconds()) / float64(moved)
	return nil
}

// benchLayers runs the micro-measurements of the layers below the worker
// loop on the workload's payloads, at the pull batch size the traced run
// observed.
func benchLayers(lv layerValues, addr string, tasks []codec.Task) error {
	frame, err := codec.AppendBatch(nil, tasks)
	if err != nil {
		return err
	}
	if err := benchCodec(lv, tasks); err != nil {
		return err
	}
	if err := benchResp(lv, string(frame)); err != nil {
		return err
	}
	if err := benchClient(lv, addr, string(frame)); err != nil {
		return err
	}
	return benchTransport(lv, addr, tasks)
}

// batchOf builds the batch of tasks the transport would carry: n copies of
// the workload's payloads addressed to pe, stamped with fence identities.
func batchOf(pe string, n int, payload func(i int) any) []codec.Task {
	if n < 1 {
		n = 1
	}
	ts := make([]codec.Task, n)
	for i := range ts {
		ts[i] = codec.Task{PE: pe, Port: core.PortIn, Value: payload(i), Instance: -1, Src: 0x9e3779b97f4a7c15, Seq: uint64(i + 1)}
	}
	return ts
}

// ledgerTerm is one line of the traced run's cost reconciliation.
type ledgerTerm struct {
	layer   string
	costUS  float64 // µs per unit
	perEv   float64 // units per event
	covered bool    // counted in the explained sum (else shown as "of which")
}

// reconcile prints each layer's cost × count per event next to the
// untraced CPU per event and returns the explained fraction.
func reconcile(terms []ledgerTerm, cpuPerEvent float64) float64 {
	explained := 0.0
	fmt.Printf("ledger   untraced cpu_us_per_event=%.3f\n", cpuPerEvent)
	for _, t := range terms {
		tag := "  "
		if t.covered {
			explained += t.costUS * t.perEv
			tag = "+ "
		}
		fmt.Printf("ledger   %s%-34s %10.3f us x %8.3f /event = %10.3f us\n", tag, t.layer, t.costUS, t.perEv, t.costUS*t.perEv)
	}
	frac := 0.0
	if cpuPerEvent > 0 {
		frac = explained / cpuPerEvent
	}
	fmt.Printf("ledger   explained=%.3f us (%.1f%%), unexplained remainder=%.3f us\n", explained, 100*frac, cpuPerEvent-explained)
	return frac
}
