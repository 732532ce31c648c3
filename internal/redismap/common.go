// Package redismap implements the paper's Redis-backed mappings:
//
//   - dyn_redis (Section 3.1.1): dynamic scheduling whose global queue is a
//     Redis Stream consumed through a consumer group, replacing the
//     multiprocessing queue of dyn_multi;
//   - dyn_auto_redis (Section 3.2.2): dyn_redis plus the Algorithm 1
//     auto-scaler driven by the consumer group's average idle time;
//   - hybrid_redis (Section 3.1.2): stateful PE instances pinned to
//     dedicated processes with private Redis stream partitions, while
//     stateless PEs keep dynamic scheduling on the global stream — the only
//     dynamic-scheduling mapping that supports stateful PEs and groupings;
//   - hybrid_auto_redis: hybrid_redis with the auto-scaler on its stateless
//     pool. The paper leaves this combination for future work ("given we
//     did not equip auto-scaling optimization to it, hybrid_redis does not
//     achieve the same efficiency"). Stateful pinned processes are never
//     scaled (their state is place-bound); only the stateless workers cycle
//     between active and idle.
//
// The mappings are runtime.Planner rows over runtime.RedisTransport, sharing
// one connect step (cluster → run keys → transport → cleanup); tasks are
// flat-binary-encoded (package codec) and shipped through real TCP
// connections to the Redis servers (internal/miniredis in this repository,
// or any RESP2-compatible server), so the cost structure of the Redis
// mappings — heavier than in-process queues, as the paper observes — is
// physically present rather than assumed. With Options.EmitBatch the
// transport pipelines the XADD commands of a batch into one round trip per
// shard.
//
// Every Redis-touching component of a run — transport, state backend, fence
// ledger, autoscale monitor — shares one redisclient.Cluster built here, so
// they agree on shard placement (the co-location invariant behind
// single-shard FENCEAPPLY/SINKAPPEND transactions) and no code path opens
// its own unrouted connection.
package redismap

import (
	"fmt"

	"repro/internal/autoscale"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/redisclient"
	"repro/internal/runtime"
	"repro/internal/state"
)

// Redis round trips dominate these mappings' per-task cost, so batching
// defaults on, adaptively sized (pass an explicit 1 to disable).
//
// RecoverStale + managed state is safe since the exactly-once fence:
// OpenManagedState (inside runtime.Execute) implies ExactlyOnceState, which
// stamps every task with a deterministic identity and drops store mutations
// a replayed execution already applied, while the transport's fenced
// acknowledgements keep the pending counter exact when a claimed-away
// consumer's late XACK lands. On the hybrid rows it covers both halves:
// stale pool deliveries are reclaimed via XAUTOCLAIM, and the pinned
// private queues are per-shard stream partitions with the same
// consumer-group PEL, so a stalled delivery is reclaimable there too.
func init() {
	for _, p := range []*runtime.Planner{
		{Label: "dyn_redis", Batch: mapping.AutoBatch, Check: runtime.ValidateDynamic, Place: runtime.PlacePool, Connect: connect},
		{Label: "dyn_auto_redis", Batch: mapping.AutoBatch, Check: runtime.ValidateDynamic, Place: runtime.PlacePool, Connect: connect,
			Strategy: idleTimeStrategy},
		{Label: "hybrid_redis", Batch: mapping.AutoBatch, Check: validateHybrid, Place: planHybrid, Connect: connect},
		{Label: "hybrid_auto_redis", Batch: mapping.AutoBatch, Check: validateHybrid, Place: planHybrid, Connect: connect,
			Strategy: func(opts mapping.Options, plan runtime.Plan) autoscale.Strategy {
				if plan.Pool <= 1 {
					return nil // a one-worker stateless pool has nothing to scale
				}
				return idleTimeStrategy(opts, plan)
			}},
	} {
		mapping.Register(p)
	}
}

// idleTimeStrategy is the Redis rows' default auto-scaling strategy. The
// paper's dyn_auto_redis threshold is the time worth a process
// reactivation/redeployment; at our millisecond timescale the poll timeout
// is that order of magnitude.
func idleTimeStrategy(opts mapping.Options, _ runtime.Plan) autoscale.Strategy {
	return &autoscale.IdleTimeStrategy{Threshold: 4 * opts.PollTimeout}
}

// connect validates the Redis data-plane addresses, dials the run's shared
// shard cluster and builds the run's transport, state backend and
// auto-scaler probe on it. Close cleans the run's keys up and hangs up.
func connect(name string, g *graph.Graph, opts mapping.Options, plan runtime.Plan) (runtime.Wiring, error) {
	addrs := opts.ShardAddrs()
	if len(addrs) == 0 {
		return runtime.Wiring{}, fmt.Errorf("%s: Options.RedisAddr or RedisAddrs is required (start internal/miniredis or point at Redis servers)", name)
	}
	cluster, err := redisclient.NewCluster(addrs)
	if err != nil {
		return runtime.Wiring{}, fmt.Errorf("%s: %w", name, err)
	}
	if err := cluster.Ping(); err != nil {
		cluster.Close()
		return runtime.Wiring{}, fmt.Errorf("%s: redis unreachable: %w", name, err)
	}
	keys := runtime.NewRunKeys(g.Name, opts.Seed)
	tr, err := runtime.NewRedisTransport(cluster, keys, plan, opts.RecoverStale)
	if err != nil {
		cluster.Close()
		return runtime.Wiring{}, fmt.Errorf("%s: %w", name, err)
	}
	tr.RecoverIdle = opts.RecoverIdle
	tr.SetDiagnosis(opts.Diagnosis)
	return runtime.Wiring{
		Transport: tr,
		Monitor: func(ctrl *autoscale.Controller) func() float64 {
			return consumerIdleMonitor(cluster, keys, ctrl)
		},
		NewStateBackend: func() state.Backend {
			b := state.NewRedisClusterBackend(cluster, keys.Prefix+":state")
			if opts.StateCoalesce {
				b.EnableCoalescing()
			}
			return b
		},
		Close: func() {
			tr.Cleanup(g)
			cluster.Close()
		},
	}, nil
}

// consumerIdleMonitor builds the dyn_auto_redis monitoring metric: the mean
// Inactive time of the pool's active consumers in the run's consumer group.
// The stream is partitioned per shard and a consumer is active wherever it
// last found work, so the probe scatter-gathers XINFO CONSUMERS across the
// shards and scores each consumer by its most recent activity anywhere
// (minimum Inactive across shards) — a worker busy draining shard 1 is not
// idle just because shard 0 hasn't seen it lately.
func consumerIdleMonitor(cluster *redisclient.Cluster, keys runtime.RedisKeys, ctrl *autoscale.Controller) func() float64 {
	return func() float64 {
		active := ctrl.ActiveSize()
		idle := map[int]float64{}
		for s := 0; s < cluster.NumShards(); s++ {
			infos, err := cluster.Shard(s).XInfoConsumers(keys.Queue, keys.Group)
			if err != nil {
				continue
			}
			for _, info := range infos {
				var w int
				if _, err := fmt.Sscanf(info.Name, "w%d", &w); err != nil || w >= active {
					continue
				}
				ms := float64(info.Inactive.Milliseconds())
				if cur, ok := idle[w]; !ok || ms < cur {
					idle[w] = ms
				}
			}
		}
		if len(idle) == 0 {
			return 0
		}
		var sum float64
		for _, ms := range idle {
			sum += ms
		}
		return sum / float64(len(idle))
	}
}
