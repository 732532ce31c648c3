package main

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/synth"
)

func init() {
	codec.Register(synth.SessionEvent{})
	codec.Register(synth.SessionUpdate{})
}

// streamWorkload is an open-loop pipeline source → middle → sink on
// dyn_redis. relay's middle is a stateless pass-through under shuffle
// grouping; session's is a group-by-user sessionizer doing one fenced
// AddInt per event on managed keyed state.
type streamWorkload struct {
	name    string
	keyed   bool
	users   int
	skew    float64
	refRate float64 // events/s of the latency/CPU reference runs
}

var (
	relayWorkload   = streamWorkload{name: "relay", users: 200_000, skew: 1.1, refRate: 20_000}
	sessionWorkload = streamWorkload{name: "session", keyed: true, users: 200_000, skew: 1.1, refRate: 8_000}
)

// streamProcs is the worker count of the open-loop workloads.
const streamProcs = 4

// maxProbeRate caps the rate search, whose probes hold every event of a
// probe in memory.
const maxProbeRate = float64(1 << 23)

// events generates the first n events of the workload's seeded input
// stream, before any timing starts. Every run of a workload offers a prefix
// of the same stream; probes regenerate theirs so the largest probe's
// input does not stay on the heap for the runs after it.
func (w streamWorkload) events(seed int64, n int) []synth.SessionEvent {
	gen := synth.NewSessionGen(seed, w.users, w.skew)
	out := make([]synth.SessionEvent, n)
	for i := range out {
		out[i] = gen.Next()
	}
	return out
}

// collector is the benchmark's view of one run: what the source offered
// when, and what the sink received. The sink counts each expected output
// slot; the correctness check afterwards requires every slot hit once.
type collector struct {
	events []synth.SessionEvent

	// session: user → index, per-user first slot and event count (n_u).
	userIdx map[string]int32
	base    []int32
	count   []int32

	hits      []atomic.Int32
	wrong     atomic.Int64
	delivered atomic.Int64
	lat       []int64 // due→delivery ns, in arrival order
	due       []int64 // due time (UnixNano) of each lat entry
	late      []int64 // generator lateness per event (source goroutine only)
	start     atomic.Int64
	lastSend  atomic.Int64
}

func newCollector(w streamWorkload, events []synth.SessionEvent) *collector {
	c := &collector{
		events: events,
		lat:    make([]int64, len(events)),
		due:    make([]int64, len(events)),
		late:   make([]int64, len(events)),
		hits:   make([]atomic.Int32, len(events)),
	}
	if w.keyed {
		// Replay the generator's output: user u must see exactly the
		// counts 1..n_u, one slot each.
		c.userIdx = map[string]int32{}
		for _, ev := range events {
			u, ok := c.userIdx[ev.User]
			if !ok {
				u = int32(len(c.count))
				c.userIdx[ev.User] = u
				c.count = append(c.count, 0)
			}
			c.count[u]++
		}
		c.base = make([]int32, len(c.count))
		next := int32(0)
		for u, n := range c.count {
			c.base[u] = next
			next += n
		}
	}
	return c
}

func (c *collector) observe(slot int, ok bool, at int64) {
	if ok {
		c.hits[slot].Add(1)
	} else {
		c.wrong.Add(1)
	}
	i := c.delivered.Add(1) - 1
	if i < int64(len(c.lat)) {
		atomic.StoreInt64(&c.lat[i], time.Now().UnixNano()-at)
		atomic.StoreInt64(&c.due[i], at)
	}
}

// failures counts lost, duplicated and wrong outputs.
func (c *collector) failures() int64 {
	bad := c.wrong.Load()
	for i := range c.hits {
		if h := c.hits[i].Load(); h != 1 {
			bad += int64(math.Abs(float64(h - 1)))
		}
	}
	return bad
}

// buildGraph wires the workload's pipeline around the collector. The source
// paces an absolute schedule: event i is due at start + i/rate and carries
// that due time, not its actual send time, so a stall in the generator or
// the system counts against the latency of every event queued behind it.
func (w streamWorkload) buildGraph(c *collector, rate float64) *graph.Graph {
	g := graph.New("bench_" + w.name)
	g.Add(func() core.PE {
		return core.NewSource("events", func(ctx *core.Context) error {
			interval := float64(time.Second) / rate
			start := time.Now()
			c.start.Store(start.UnixNano())
			for i := range c.events {
				due := start.Add(time.Duration(float64(i) * interval))
				now := time.Now()
				if d := due.Sub(now); d > 0 {
					time.Sleep(d)
					now = time.Now()
				}
				c.late[i] = int64(now.Sub(due))
				ev := c.events[i]
				ev.At = due.UnixNano()
				if err := ctx.EmitDefault(ev); err != nil {
					return err
				}
			}
			c.lastSend.Store(time.Now().UnixNano())
			return nil
		})
	})
	if w.keyed {
		g.Add(func() core.PE {
			return core.NewEach("sessionize", func(ctx *core.Context, v any) error {
				ev, ok := v.(synth.SessionEvent)
				if !ok {
					return fmt.Errorf("sessionize: unexpected payload %T", v)
				}
				n, err := ctx.State().AddInt(ev.User, 1)
				if err != nil {
					return err
				}
				return ctx.EmitDefault(synth.SessionUpdate{User: ev.User, Count: n, At: ev.At})
			})
		}).SetKeyedState()
		g.Add(func() core.PE {
			return core.NewSink("deliver", func(ctx *core.Context, v any) error {
				u, ok := v.(synth.SessionUpdate)
				if !ok {
					return fmt.Errorf("deliver: unexpected payload %T", v)
				}
				idx, known := c.userIdx[u.User]
				good := known && u.Count >= 1 && u.Count <= int64(c.count[idx])
				slot := 0
				if good {
					slot = int(c.base[idx]) + int(u.Count) - 1
				}
				c.observe(slot, good, u.At)
				return nil
			})
		})
		g.Pipe("events", "sessionize").SetGrouping(graph.GroupByKey(func(v any) string { return v.(synth.SessionEvent).User }))
		g.Pipe("sessionize", "deliver")
		return g
	}
	g.Add(func() core.PE {
		return core.NewMap("relay", func(ctx *core.Context, v any) (any, error) {
			if _, ok := v.(synth.SessionEvent); !ok {
				return nil, fmt.Errorf("relay: unexpected payload %T", v)
			}
			return v, nil
		})
	})
	g.Add(func() core.PE {
		return core.NewSink("deliver", func(ctx *core.Context, v any) error {
			ev, ok := v.(synth.SessionEvent)
			if !ok {
				return fmt.Errorf("deliver: unexpected payload %T", v)
			}
			good := ev.Seq >= 0 && ev.Seq < int64(len(c.events)) && c.events[ev.Seq].User == ev.User
			c.observe(int(ev.Seq), good, ev.At)
			return nil
		})
	})
	g.Pipe("events", "relay")
	g.Pipe("relay", "deliver")
	return g
}

// options are the run options of every workload run on the Redis data
// plane: modeled costs off (OpDelay and DispatchDelay are 0 on the
// benchmark's servers), one shard, default batching.
func (w streamWorkload) options(seed int64, addr string) mapping.Options {
	return mapping.Options{
		Processes:        streamProcs,
		Platform:         platform.Server,
		Seed:             seed,
		RedisAddr:        addr,
		RedisAddrs:       []string{addr},
		ExactlyOnceState: w.keyed,
	}
}

// probe is one measured open-loop run at a fixed rate.
type probe struct {
	rate        float64
	offered     int
	delivered   int64
	failed      int64
	offeredFrac float64 // achieved send rate ÷ target rate
	p50, p99    int64   // due→delivery ns
	windows     []window
	lateP99     int64 // generator lateness ns
	drain       time.Duration
	cpu         time.Duration
	heapMB      float64
	wall        time.Duration
	sustainable bool
	report      metrics.Report
}

func (p probe) cpuPerEvent() float64 {
	if p.delivered == 0 {
		return 0
	}
	return float64(p.cpu.Microseconds()) / float64(p.delivered)
}

func (p probe) String() string {
	return fmt.Sprintf("rate=%8.0f/s offered=%7d delivered=%7d failed=%d offered_frac=%.3f p50=%.3fms p99=%.3fms late_p99=%.3fms drain=%.2fs cpu=%.2fus/ev heap=%.1fMB sustainable=%v",
		p.rate, p.offered, p.delivered, p.failed, p.offeredFrac, ms(p.p50), ms(p.p99), ms(p.lateP99), p.drain.Seconds(), p.cpuPerEvent(), p.heapMB, p.sustainable)
}

// runStream offers events at rate through the workload on mapping m and
// measures the run. The sustainability rule: the pacer held ≥95% of the
// target rate, p99 ≤ 1 s, and the backlog left when the source stopped
// drained within max(duration/10, 1 s).
func (w streamWorkload) runStream(m mapping.Mapping, opts mapping.Options, events []synth.SessionEvent, rate float64) (probe, error) {
	c := newCollector(w, events)
	g := w.buildGraph(c, rate)
	heap := startHeapSampler()
	cpu0 := cpuTime()
	t0 := time.Now()
	rep, err := m.Execute(g, opts)
	end := time.Now()
	cpu := cpuTime() - cpu0
	heapMB := heap.Stop()
	if err != nil {
		return probe{}, fmt.Errorf("%s %s @%.0f/s: %w", w.name, m.Name(), rate, err)
	}
	p := probe{
		rate:      rate,
		offered:   len(events),
		delivered: c.delivered.Load(),
		failed:    c.failures(),
		cpu:       cpu,
		heapMB:    heapMB,
		wall:      end.Sub(t0),
		report:    rep,
	}
	start, last := c.start.Load(), c.lastSend.Load()
	if last > start {
		span := time.Duration(last - start)
		p.offeredFrac = float64(len(events)) / span.Seconds() / rate
		if p.offeredFrac > 1 {
			p.offeredFrac = 1
		}
		p.drain = end.Sub(time.Unix(0, last))
	}
	n := int(p.delivered)
	if n > len(c.lat) {
		n = len(c.lat)
	}
	dur := time.Duration(float64(len(events)) / rate * float64(time.Second))
	lat := append([]int64(nil), c.lat[:n]...)
	p.windows = latencyWindows(lat, c.due[:n], c.start.Load(), dur)
	sortInt64(lat)
	p.p50, p.p99 = quantile(lat, 0.50), quantile(lat, 0.99)
	late := append([]int64(nil), c.late...)
	sortInt64(late)
	p.lateP99 = quantile(late, 0.99)
	if p.lateP99 < 0 {
		p.lateP99 = 0
	}
	budget := dur / 10
	if budget < time.Second {
		budget = time.Second
	}
	p.sustainable = p.offeredFrac >= 0.95 && p.p99 > 0 && p.p99 <= int64(time.Second) && p.drain <= budget && p.failed == 0
	return p, nil
}

// searchMax finds the highest sustainable rate: it doubles from four times
// the reference rate until a rate fails, then bisects (geometrically)
// between the last passing and first failing rate down to 5%, so the
// maximum is found rather than floored at a ladder rung. The result is the
// last passing rate.
func (w streamWorkload) searchMax(m mapping.Mapping, opts mapping.Options, probeDur time.Duration, obs func(probe) error) (float64, error) {
	// A rate fails only when two probes in a row fail, so one transient
	// stall on a shared host does not end the search early.
	run := func(rate float64) (bool, error) {
		n := int(rate * probeDur.Seconds())
		for try := 0; try < 2; try++ {
			p, err := w.runStream(m, opts, w.events(opts.Seed, n), rate)
			if err != nil {
				return false, err
			}
			if err := obs(p); err != nil {
				return false, err
			}
			if p.sustainable {
				return true, nil
			}
		}
		return false, nil
	}
	lo, hi := 0.0, 0.0
	for rate := 4 * w.refRate; hi == 0; rate *= 2 {
		if rate > maxProbeRate {
			return 0, fmt.Errorf("%s: every rate up to %.0f/s was sustained; no wall found", w.name, maxProbeRate)
		}
		ok, err := run(rate)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = rate
		} else {
			hi = rate
		}
	}
	if lo == 0 {
		// Not even four times the reference rate holds: search below it.
		lo = w.refRate / 8
	}
	for hi/lo > 1.05 {
		mid := math.Sqrt(lo * hi)
		ok, err := run(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// runStreamWorkload is one invocation of relay or session.
func runStreamWorkload(w streamWorkload, cfg config) (result, error) {
	if cfg.trace {
		return w.traced(cfg)
	}
	var res result
	m, err := mapping.Get("dyn_redis")
	if err != nil {
		return res, err
	}
	setup, err := timeSetup(5, func(addr string) error {
		_, err := w.runStream(m, w.options(cfg.seed, addr), w.events(cfg.seed, 1), w.refRate)
		return err
	})
	if err != nil {
		return res, err
	}

	srv, err := startServer()
	if err != nil {
		return res, err
	}
	defer srv.Close()
	opts := w.options(cfg.seed, srv.Addr())

	account := func(p probe) {
		res.Attempted += int64(p.offered)
		res.Failed += p.failed
	}
	step := time.Duration(cfg.seconds / 15 * float64(time.Second))
	if step < time.Second {
		step = time.Second
	}

	// Latency and CPU at the fixed reference rate, far below the wall: ten
	// runs, one after each probe of the rate search and the rest after it,
	// so they sample the whole run rather than one stretch of a shared
	// host's load. p50/p99 are medians over the runs' half-second windows
	// (by due time), so one stall moves one window, not the result; CPU,
	// heap, makespan and process time are medians over the runs.
	const refRuns = 10
	refEvents := w.events(cfg.seed, int(w.refRate*step.Seconds()))
	var p50, p99, cpu, heap, wall, proc []float64
	ref := func() error {
		p, err := w.runStream(m, opts, refEvents, w.refRate)
		if err != nil {
			return err
		}
		fmt.Printf("ref      %s\n", p)
		account(p)
		for _, w := range p.windows {
			p50 = append(p50, ms(w.p50))
			p99 = append(p99, ms(w.p99))
		}
		cpu = append(cpu, p.cpuPerEvent())
		heap = append(heap, p.heapMB)
		wall = append(wall, p.wall.Seconds())
		proc = append(proc, p.report.ProcessTime.Seconds())
		return nil
	}
	maxRate, err := w.searchMax(m, opts, step, func(p probe) error {
		fmt.Printf("probe    %s\n", p)
		account(p)
		if len(cpu) < refRuns {
			return ref()
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	for len(cpu) < refRuns {
		if err := ref(); err != nil {
			return res, err
		}
	}
	res.Correct = res.Failed == 0
	res.set("max_rate", "events/s", maxRate)
	res.set("p50_ms", "ms", median(p50))
	res.set("cpu_us_per_event", "us", median(cpu))
	res.set("peak_heap_mb", "MB", median(heap))
	res.set("makespan_s", "s", median(wall))
	res.set("process_s", "s", median(proc))
	res.set("setup_s", "s", setup)
	fmt.Printf("info     p99_ms %.4f (median of the reference runs' half-second windows; reported by the traced run as e2e.p99_ms)\n", median(p99))
	return res, nil
}

// window is the latency quantiles of the events due within one
// windowLen-long slice of a run.
type window struct{ p50, p99 int64 }

const windowLen = 500 * time.Millisecond

// latencyWindows splits latencies by their event's due time into the full
// windows of a schedule lasting span from start, and returns the quantiles
// of each window holding at least 1000 events (enough for 10 beyond the
// p99).
func latencyWindows(lat, due []int64, start int64, span time.Duration) []window {
	buckets := make([][]int64, int(span/windowLen))
	for i, l := range lat {
		b := int((due[i] - start) / int64(windowLen))
		if b >= 0 && b < len(buckets) {
			buckets[b] = append(buckets[b], l)
		}
	}
	var out []window
	for _, b := range buckets {
		if len(b) < 1000 {
			continue
		}
		sortInt64(b)
		out = append(out, window{quantile(b, 0.50), quantile(b, 0.99)})
	}
	return out
}
