// Package mapping defines the interface every dispel4py-style enactment
// engine implements ("mapping is the process of 'translating' workflows onto
// execution systems"), a registry of the available mappings, and the Simple
// sequential mapping.
//
// The mappings implemented across this repository, matching the paper's
// evaluation section:
//
//	simple          sequential in-process execution (reference semantics)
//	multi           static Multiprocessing: one process per PE instance
//	mpi             static message-passing variant over internal/mpi
//	dyn_multi       dynamic scheduling over an in-process global queue
//	dyn_auto_multi  dyn_multi + auto-scaler (queue-size strategy)
//	dyn_redis       dynamic scheduling over a Redis stream consumer group
//	dyn_auto_redis  dyn_redis + auto-scaler (idle-time strategy)
//	hybrid_redis    stateful instances on private queues + dynamic stateless pool
package mapping

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/autoscale"
	"repro/internal/diagnosis"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/state"
	"repro/internal/telemetry"
)

// AutoBatch, assigned to EmitBatch or PullBatch, sizes that batch window
// adaptively at run time: each worker tracks the transport's observed
// per-operation round-trip cost with an EWMA and grows its window while the
// amortized per-task share of a round trip stays above the budget (shrinking
// again when deliveries underfill the window). Heavyweight transports
// (Redis) converge on large windows, cheap in-process transports stay small,
// without a compile-time constant picking sides.
const AutoBatch = -1

// Options configures one workflow execution.
type Options struct {
	// Processes is the worker process budget.
	Processes int
	// Platform selects the simulated host; zero value means platform.Server.
	Platform platform.Platform
	// Seed drives all deterministic randomness in the run.
	Seed int64
	// RedisAddr is the server address for Redis-backed mappings.
	RedisAddr string
	// RedisAddrs lists the shard servers of a sharded Redis data plane, in
	// ring order (the order is part of the placement: shard i's ring arc is
	// derived from its index). Empty falls back to the single RedisAddr.
	// The Redis planners route the task stream, state namespaces, fence
	// ledgers and telemetry gauges across these shards through one shared
	// redisclient.Cluster.
	RedisAddrs []string
	// StateCoalesce group-commits unfenced AddInt state ops per shard: all
	// increments concurrently in flight across workers merge into one
	// pipelined HINCRBY flush on the namespace's shard, while each caller
	// still observes its exact intermediate value. Worth switching on for
	// high-rate keyed-counter workloads (the zipfian sessionization hot
	// path); off by default because it reorders independent keys' round
	// trips, which microbenchmarks asserting exact trip counts care about.
	StateCoalesce bool
	// PollTimeout is how long dynamic workers block on an empty queue before
	// counting a retry. Zero means 2ms.
	PollTimeout time.Duration
	// Retries is the retry budget of the termination protocol. Zero means 5.
	Retries int
	// AutoScale overrides the auto-scaler configuration of the auto
	// mappings; nil means defaults (max pool = Processes, initial = half).
	AutoScale *autoscale.Config
	// Strategy overrides the auto-scaling strategy; nil means the paper's
	// default per mapping (queue-size for multiprocessing, idle-time for
	// Redis). The refined autoscale.ProportionalQueueStrategy is the main
	// alternative.
	Strategy autoscale.Strategy
	// Trace, when non-nil, collects auto-scaler trace points (Figure 13).
	Trace *autoscale.Trace
	// RecoverStale enables XAUTOCLAIM-based recovery of pending tasks
	// whose consumer stopped acknowledging them (Redis mappings only).
	// Execution becomes at-least-once: a task abandoned mid-flight may be
	// re-run by another worker — possibly while the original worker is
	// still alive, so both executions race. With managed-state PEs this
	// implies ExactlyOnceState, so the race cannot double-apply store
	// mutations.
	RecoverStale bool
	// RecoverIdle is the minimum idle time before RecoverStale reclaims a
	// pending delivery from its consumer. Zero means 8× PollTimeout — the
	// aggressive setting failure-injection tests want. Production-shaped
	// runs should set it above the worst-case residency of a prefetched
	// batch (PullBatch window × per-task service time): a too-small value
	// does not break correctness (the exactly-once fence absorbs the
	// resulting duplicate executions) but re-runs work that was never lost.
	RecoverIdle time.Duration
	// ExactlyOnceState fences managed-state writes against duplicate task
	// executions: every task is stamped with a deterministic provenance +
	// sequence identity, and each store records an applied ledger (persisted
	// with the namespace, so checkpoints and StateResume keep the fence)
	// that drops mutations whose identity was already applied. It is
	// implied by RecoverStale on workflows with managed state; set it
	// explicitly to fence against duplicate deliveries from other sources.
	// Emissions to PEs without managed state remain at-least-once.
	ExactlyOnceState bool
	// StateBackend overrides the managed-state backend. nil means a private
	// per-run backend (in-memory for the in-process mappings, a run-prefixed
	// Redis backend for the Redis mappings). Supplying an external backend
	// makes state survive the run: on failure the namespaces are kept, so a
	// follow-up run with StateResume can pick up from the last checkpoint.
	StateBackend state.Backend
	// StateResume restores each managed store from its last checkpoint (when
	// one exists) before execution instead of starting from empty state. It
	// requires an explicit StateBackend — a default per-run backend cannot
	// hold a previous run's checkpoints.
	StateResume bool
	// StateCheckpointEvery checkpoints each managed store after every N
	// mutations (0 disables auto-checkpointing). Lower values bound the
	// state lost to a crash at the cost of more checkpoint writes.
	StateCheckpointEvery int
	// EmitBatch buffers up to this many emitted tasks per worker and hands
	// them to the transport in one batched push: Redis transports pipeline
	// the XADD commands into a single round trip, in-process
	// transports pay one synchronization cost per batch. 1 disables
	// batching; 0 picks the mapping's default (AutoBatch on the Redis
	// mappings, unbatched elsewhere); AutoBatch sizes the window adaptively.
	// A worker's batch is always flushed before any task that emitted into
	// it is released, so termination accounting is unaffected.
	EmitBatch int
	// PullBatch caps how many tasks a worker takes from the transport per
	// consume round trip, holding the surplus in a worker-local prefetch
	// buffer: the Redis transport reads XREADGROUP COUNT n, the in-process
	// queue dequeues the window under one lock hold. Acknowledgements are batched symmetrically — one pipelined
	// release per pulled batch, flushed before the buffer refills — and
	// prefetched tasks stay pending until acknowledged, so the coordinator's
	// drain never unblocks early. 1 disables batching; 0 picks the mapping's
	// default (AutoBatch on the Redis mappings, unbatched elsewhere);
	// AutoBatch sizes the window adaptively.
	PullBatch int
	// Telemetry, when non-nil, receives live metrics from the run: per-worker
	// pull/ack/emit-flush latency histograms and batch sizes, transport
	// queue-depth gauges, managed-state per-op latencies and fence-drop
	// counts, and sampled task-hop traces. The registry may be shared across
	// runs (counters accumulate); nil keeps every hot path uninstrumented.
	Telemetry *telemetry.Registry
	// TelemetryEvery, with Telemetry set, records a flight-recorder snapshot
	// of the registry at this period while the run executes (0 disables).
	TelemetryEvery time.Duration
	// Diagnosis, when non-nil, receives bottleneck-attribution signals from
	// the run: the per-PE/per-edge flow ledger (tasks, bytes, service time,
	// sampled queue wait, fence drops, replays) fed by the worker loop and
	// router, and the run-event journal (worker lifecycle, reclaims, lease
	// extensions, fence drops, pill routing, checkpoints, sizer resizes).
	// Critical-path decomposition additionally needs Telemetry (it reads the
	// tracer's assembled paths); the straggler detector needs TelemetryEvery
	// flights. Like the registry, a Diag may be shared across runs, in which
	// case ledger rows accumulate. nil costs a pointer test and nothing else.
	Diagnosis *diagnosis.Diag
	// EmitFlushEvery bounds how long a partially-filled emit batch may age
	// before being flushed. The age is checked at each emission (and the
	// batch always flushes before the worker's prefetch buffer refills, so
	// with single-task pulls it flushes at every task end), so the bound
	// kicks in for sources that keep emitting across a long Generate; a PE
	// that emits once and then only computes holds its batch until the
	// refill-time flush. Zero defaults to 2ms when EmitBatch enables
	// batching.
	EmitFlushEvery time.Duration
}

// WithDefaults fills zero-valued fields.
func (o Options) WithDefaults() Options {
	if o.Processes <= 0 {
		o.Processes = 1
	}
	if o.Platform.Cores == 0 {
		o.Platform = platform.Server
	}
	if o.PollTimeout <= 0 {
		o.PollTimeout = 2 * time.Millisecond
	}
	if o.Retries <= 0 {
		o.Retries = 5
	}
	if (o.EmitBatch > 1 || o.EmitBatch == AutoBatch) && o.EmitFlushEvery <= 0 {
		o.EmitFlushEvery = 2 * time.Millisecond
	}
	return o
}

// ShardAddrs resolves the Redis data-plane addresses: RedisAddrs when set,
// else the single RedisAddr (nil when neither is configured). Every layer
// that dials Redis goes through this, so a run cannot end up with its
// transport and state backend on different shard sets.
func (o Options) ShardAddrs() []string {
	if len(o.RedisAddrs) > 0 {
		return o.RedisAddrs
	}
	if o.RedisAddr != "" {
		return []string{o.RedisAddr}
	}
	return nil
}

// ResolveBatching fills zero-valued batch knobs with a mapping's defaults
// (planners call it before handing options to the runtime), leaving explicit
// settings — including an explicit 1 = "off" — untouched.
func (o Options) ResolveBatching(defaultEmit, defaultPull int) Options {
	if o.EmitBatch == 0 {
		o.EmitBatch = defaultEmit
	}
	if o.PullBatch == 0 {
		o.PullBatch = defaultPull
	}
	return o
}

// ValidateBatching rejects batch knob values outside {AutoBatch, 0, 1, n>1}.
// The runtime calls it once per execution so a typo'd negative size fails
// loudly instead of silently disabling batching.
func (o Options) ValidateBatching() error {
	if o.EmitBatch < AutoBatch {
		return fmt.Errorf("mapping: Options.EmitBatch = %d is invalid (want AutoBatch, 0, or a positive size)", o.EmitBatch)
	}
	if o.PullBatch < AutoBatch {
		return fmt.Errorf("mapping: Options.PullBatch = %d is invalid (want AutoBatch, 0, or a positive size)", o.PullBatch)
	}
	return nil
}

// Mapping executes abstract workflows on a concrete engine.
type Mapping interface {
	// Name is the technique label used in reports and the registry.
	Name() string
	// Execute runs the workflow and reports its metrics.
	Execute(g *graph.Graph, opts Options) (metrics.Report, error)
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Mapping{}
)

// Register adds a mapping to the global registry. Mapping packages call it
// from init; duplicate names panic immediately.
func Register(m Mapping) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[m.Name()]; dup {
		panic(fmt.Sprintf("mapping: duplicate registration of %q", m.Name()))
	}
	registry[m.Name()] = m
}

// Get looks up a registered mapping by name.
func Get(name string) (Mapping, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	m, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("mapping: unknown mapping %q (have %v)", name, Names())
	}
	return m, nil
}

// Names returns the registered mapping names, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
