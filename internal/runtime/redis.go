package runtime

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/diagnosis"
	"repro/internal/graph"
	"repro/internal/redisclient"
)

// runNonce disambiguates concurrent runs against one server.
var runNonce atomic.Int64

// RedisKeys holds the Redis key names of one execution. The same names are
// used on every shard of the data plane: a key names a partition, the shard
// index says which server holds it, so a single-shard cluster reproduces the
// exact single-server layout.
type RedisKeys struct {
	// Prefix namespaces every key of the run.
	Prefix string
	// Queue is the pool stream, one partition per shard, consumed through
	// Group.
	Queue string
	// Group is the consumer group name.
	Group string
	// PendingKey is the outstanding-task counter, sharded: each shard counts
	// the tasks stored on it and Pending() scatter-gathers the sum.
	PendingKey string
}

// NewRunKeys derives a fresh key namespace for one run.
func NewRunKeys(workflow string, seed int64) RedisKeys {
	prefix := fmt.Sprintf("d4p:%s:%d:%d", workflow, seed, runNonce.Add(1))
	return RedisKeys{
		Prefix:     prefix,
		Queue:      prefix + ":queue",
		Group:      "workers",
		PendingKey: prefix + ":pending",
	}
}

// PrivKey is the private stream of one pinned PE instance (one reclaimable
// partition per shard, consumed through Group by that instance's worker).
func (k RedisKeys) PrivKey(pe string, instance int) string {
	return fmt.Sprintf("%s:priv:%s:%d", k.Prefix, pe, instance)
}

// taskField is the stream entry field carrying the encoded task.
const taskField = "task"

// RedisTransport carries tasks through a sharded Redis data plane: pool
// tasks on per-shard stream partitions consumed by a consumer group
// (consumer "w<index>" per pool worker), pinned tasks on per-instance
// private streams partitioned the same way — the paper's dyn_redis and
// hybrid_redis storage layout behind one Transport, spread over
// N servers by a redisclient.Cluster.
//
// Placement: unfenced pool batches round-robin across shards per packed
// entry; unfenced private frames go to the hash-ring home shard of their
// stream key; fenced batches land entirely on the shard of their task gate
// so the SINKAPPEND transaction stays single-shard (the co-location
// invariant — see PushFenced). Each worker therefore blocking-reads its home
// shard and sweeps the others non-blocking, so work is found wherever
// routing put it.
//
// Batched pushes are pipelined per shard and frame-packed: one INCRBY for
// the shard's pending counter, one XADD per contiguous run of pool tasks
// (the whole emit batch, in the common case), and one XADD batch frame per
// private stream share a round trip per shard. Acknowledgement is
// entry-range: a stream entry is XACKed on its own shard only once every
// task delivered from it has been acked, so the consumer group's bookkeeping
// stays per entry while the worker loop keeps acking per task.
type RedisTransport struct {
	cluster      *redisclient.Cluster
	keys         RedisKeys
	plan         Plan
	recoverStale bool
	closed       atomic.Bool

	// rr round-robins unfenced pool entries across shards.
	rr atomic.Uint64

	// slots[w] is worker w's addressing, resolved once.
	slots []workerSlot

	// frames[w] tracks the stream entries worker w has pulled but not fully
	// acknowledged: (shard, entry ID) → how many of its delivered tasks are
	// still unacked, and the pending-counter weight the entry releases when
	// its XACK removes it. Entry IDs are only unique per shard, hence the
	// compound key. Each map is touched only by worker w's goroutine
	// (PullBatch and Ack for w run on it), so no locking.
	frames []map[frameKey]entryState

	// leases[w] throttles worker w's Extend heartbeats (same single-goroutine
	// ownership as frames[w]).
	leases []leaseState

	// RecoverIdle is the minimum idle time before an empty-handed pull
	// reclaims another consumer's pending entry (recoverStale only). Zero
	// means 8× the pull timeout. Entries sitting in a healthy worker's
	// prefetch buffer look idle to XAUTOCLAIM, so values below a batch's
	// worst-case residency trade duplicate executions (safe under the
	// exactly-once fence, but wasted work) for faster failure recovery.
	RecoverIdle time.Duration

	// diag (set via SetDiagnosis; nil keeps the paths cold) journals the
	// recovery lifecycle — per-shard XAUTOCLAIM reclaims and lease
	// extensions — and attributes reclaimed tasks to their PE's Replays
	// counter.
	diag *diagnosis.Diag
}

// SetDiagnosis attaches the diagnosis plane the planners thread through.
func (t *RedisTransport) SetDiagnosis(d *diagnosis.Diag) { t.diag = d }

// workerSlot is one worker's fixed addressing on the data plane.
type workerSlot struct {
	// stream is the key the worker consumes: pool workers share the queue
	// partitions, pinned workers own their private stream's partitions.
	stream string
	// consumer is the worker's name in the consumer group, "w<index>".
	consumer string
	// home is the shard the worker blocking-reads: pinned workers wait on
	// the ring home of their private stream (where unfenced pushes place
	// frames), pool workers spread round-robin so the blocking load covers
	// every shard.
	home int
}

// frameKey identifies one pulled stream entry: entry IDs are server-local,
// so the shard index is part of the identity.
type frameKey struct {
	shard int
	id    string
}

// entryState is the per-stream-entry ack bookkeeping.
type entryState struct {
	// remaining counts delivered-but-unacked tasks of the entry.
	remaining int
	// tasks is the entry's non-poison task count — what the pending counter
	// loses when the entry's XACK confirms removal.
	tasks int
}

// leaseState is one worker's heartbeat throttle: the last extension time and
// the poll timeout of its latest pull (which sets the recovery idle
// threshold the heartbeat must stay under).
type leaseState struct {
	last    time.Time
	timeout time.Duration
}

// NewRedisTransport creates the consumer groups on every shard and wraps the
// cluster. With recoverStale, empty-handed pulls XAUTOCLAIM tasks whose
// consumer stopped acknowledging them (at-least-once execution), sweeping
// shard by shard. A Single-wrapped client reproduces the old single-server
// transport exactly.
func NewRedisTransport(cluster *redisclient.Cluster, keys RedisKeys, plan Plan, recoverStale bool) (*RedisTransport, error) {
	streams := []string{keys.Queue}
	for _, spec := range plan.Workers {
		if spec.Pinned() {
			streams = append(streams, keys.PrivKey(spec.PE, spec.Instance))
		}
	}
	err := cluster.Each(func(shard int, cl *redisclient.Client) error {
		for _, stream := range streams {
			if err := cl.XGroupCreate(stream, keys.Group, "0"); err != nil {
				return fmt.Errorf("runtime: create consumer group on shard %d: %w", shard, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	slots := make([]workerSlot, len(plan.Workers))
	frames := make([]map[frameKey]entryState, len(plan.Workers))
	for w, spec := range plan.Workers {
		slots[w] = workerSlot{stream: keys.Queue, consumer: fmt.Sprintf("w%d", w), home: w % cluster.NumShards()}
		if spec.Pinned() {
			slots[w].stream = keys.PrivKey(spec.PE, spec.Instance)
			slots[w].home = cluster.ShardFor(slots[w].stream)
		}
		frames[w] = map[frameKey]entryState{}
	}
	return &RedisTransport{
		cluster: cluster, keys: keys, plan: plan, recoverStale: recoverStale,
		slots: slots, frames: frames, leases: make([]leaseState, len(plan.Workers)),
	}, nil
}

// shardCmds accumulates one shard's slice of a push batch.
type shardCmds struct {
	// counted is the batch's non-poison task count landing on the shard —
	// the shard's pending-counter increment.
	counted int
	cmds    [][]string
}

// Push implements Transport. Each shard's pending counter is incremented
// before any task on any shard becomes readable, preserving the
// sum(pending) == 0 ⇒ fully drained invariant across the whole batch: when
// the batch spans shards, the counter increments land as a first
// scatter-gather phase and the task entries only ship after every increment
// is durable (a task acked on a fast shard can then never outrun a slow
// shard's increment and expose a transient zero). A single-shard batch —
// always, at one shard — keeps the original one-pipeline fast path.
//
// Contiguous runs of pool tasks pack into a single stream entry each (one
// XADD per emit batch instead of one per task), round-robined across
// shards; a poison pill always gets its own entry so delivery order
// survives the packing and pills spread across consumers instead of riding
// one frame. Tasks sharing a private stream ship as a single batch frame in
// one XADD on the stream's home shard.
func (t *RedisTransport) Push(tasks ...Task) error {
	if t.closed.Load() {
		return errTransportClosed
	}
	batches, err := t.pushCmds(tasks, 0, -1)
	if err != nil || len(batches) == 0 {
		return err
	}
	if len(batches) == 1 {
		for shard, sc := range batches {
			_, err := t.cluster.Shard(shard).Pipeline(sc.assemble(t.keys.PendingKey))
			return err
		}
	}
	// Phase 1: pending increments on every involved shard — all durable
	// before any entry ships.
	err = t.cluster.Gather(func(shard int, cl *redisclient.Client) error {
		sc, ok := batches[shard]
		if !ok || sc.counted == 0 {
			return nil
		}
		_, err := cl.IncrBy(t.keys.PendingKey, int64(sc.counted))
		return err
	})
	if err != nil {
		return err
	}
	// Phase 2: the entry pipelines, scatter-gathered per shard.
	return t.cluster.Gather(func(shard int, cl *redisclient.Client) error {
		sc, ok := batches[shard]
		if !ok || len(sc.cmds) == 0 {
			return nil
		}
		_, err := cl.Pipeline(sc.cmds)
		return err
	})
}

// PushFenced implements FencedPusher: the whole output batch of one fenced
// Final — pending-counter increment, packed stream entries, private-stream
// frames — rides a single SINKAPPEND transaction gated on the delivery's
// task-gate ledger field inside the state hash. Either the gate records and
// every task lands, or the gate was already recorded (a duplicate Final) and
// nothing does. This is the emit half of exactly-once, atomic with the state
// fence that guards the mutations.
//
// Sharding is what makes the routing here load-bearing: SINKAPPEND is a
// single-server transaction, so the entire batch is placed on the shard that
// owns the gate's hash key — the co-location invariant. The gate, its ledger
// entry (fields of the same state hash) and the sink entries written here
// hash together by construction, because the state backend routes the hash
// by its {namespace} tag and this method routes by the same key through the
// same ring. It requires the transport and the state backend to share one
// cluster, which TaskGateRef only affirms when true.
//
// entryCap chunks the batch's pool tasks into stream entries of at most
// that many tasks (the caller's emit window). The transaction is atomic
// either way; without the cap the whole Final output would land as one
// packed entry and its downstream fan-out would serialize on whichever
// single consumer pulls it.
func (t *RedisTransport) PushFenced(hashKey, field string, entryCap int, tasks ...Task) (bool, error) {
	if t.closed.Load() {
		return false, errTransportClosed
	}
	gateShard := t.cluster.ShardFor(hashKey)
	batches, err := t.pushCmds(tasks, entryCap, gateShard)
	if err != nil {
		return false, err
	}
	var cmds [][]string
	if sc, ok := batches[gateShard]; ok {
		cmds = sc.assemble(t.keys.PendingKey)
	}
	// An empty batch still records the gate: a Final with no emissions must
	// be marked done exactly once too.
	return t.cluster.Shard(gateShard).SinkAppend(hashKey, field, cmds)
}

// assemble prepends the shard's pending-counter increment to its entry
// commands — the increment must execute first within the pipeline so the
// count is visible before any of the shard's tasks are readable.
func (sc *shardCmds) assemble(pendingKey string) [][]string {
	if sc.counted == 0 {
		return sc.cmds
	}
	out := make([][]string, 0, len(sc.cmds)+1)
	out = append(out, []string{"INCRBY", pendingKey, strconv.Itoa(sc.counted)})
	return append(out, sc.cmds...)
}

// pushCmds packs a task batch into per-shard command sequences: one XADD per
// contiguous pool run (poison pills get their own entries), one XADD batch
// frame per private stream. entryCap > 0 bounds the tasks packed into one
// pool-run entry. fixedShard >= 0 pins every command to that shard (the
// fenced single-shard path); otherwise pool entries round-robin and private
// frames follow the ring.
func (t *RedisTransport) pushCmds(tasks []Task, entryCap, fixedShard int) (map[int]*shardCmds, error) {
	batches := map[int]*shardCmds{}
	shardOf := func(key string) int {
		if fixedShard >= 0 {
			return fixedShard
		}
		return t.cluster.ShardFor(key)
	}
	nextPool := func() int {
		if fixedShard >= 0 {
			return fixedShard
		}
		return int((t.rr.Add(1) - 1) % uint64(t.cluster.NumShards()))
	}
	get := func(shard int) *shardCmds {
		sc := batches[shard]
		if sc == nil {
			sc = &shardCmds{}
			batches[shard] = sc
		}
		return sc
	}
	buf := codec.GetBuffer()
	defer buf.Release()
	// Pool tasks keep their batch order. pool aliases tasks until a private
	// task turns up; from then on it is one copy sized to the batch.
	pool := tasks
	var priv map[string][]Task
	for i, task := range tasks {
		if task.Instance < 0 {
			if priv != nil {
				pool = append(pool, task)
			}
			continue
		}
		if priv == nil {
			priv = map[string][]Task{}
			pool = append(make([]Task, 0, len(tasks)), tasks[:i]...)
		}
		key := t.keys.PrivKey(task.PE, task.Instance)
		priv[key] = append(priv[key], task)
	}
	addEntry := func(frame []byte, counted int) {
		sc := get(nextPool())
		sc.cmds = append(sc.cmds, []string{"XADD", t.keys.Queue, "*", taskField, string(frame)})
		sc.counted += counted
	}
	// A run is the subslice pool[start:end] between pills, capped at
	// entryCap tasks; each packs into one entry.
	start := 0
	flushRun := func(end int) error {
		if end > start {
			b, err := codec.AppendBatch(buf.B[:0], pool[start:end])
			buf.B = b[:0]
			if err != nil {
				return err
			}
			addEntry(b, end-start)
		}
		start = end
		return nil
	}
	for i, task := range pool {
		if task.Poison {
			if err := flushRun(i); err != nil {
				return nil, err
			}
			b, err := codec.AppendTask(buf.B[:0], task)
			buf.B = b[:0]
			if err != nil {
				return nil, err
			}
			addEntry(b, 0)
			start = i + 1
			continue
		}
		if entryCap > 0 && i+1-start >= entryCap {
			if err := flushRun(i + 1); err != nil {
				return nil, err
			}
		}
	}
	if err := flushRun(len(pool)); err != nil {
		return nil, err
	}
	for key, group := range priv {
		b, err := codec.AppendBatch(buf.B[:0], group)
		buf.B = b[:0]
		if err != nil {
			return nil, err
		}
		sc := get(shardOf(key))
		sc.cmds = append(sc.cmds, []string{"XADD", key, "*", taskField, string(b)})
		for _, task := range group {
			if !task.Poison {
				sc.counted++
			}
		}
	}
	return batches, nil
}

// PullBatch implements Transport. It first releases release exactly as Ack
// would, then pulls. Every worker consumes its stream's partitions
// home-shard-first. On a multi-shard cluster a non-blocking sweep over all
// shards (home, home+1, …) picks up work wherever routing placed it, then an
// empty-handed worker parks in a blocking XREADGROUP on its home shard for
// the poll timeout. At one shard that sweep would only repeat the blocking
// read, which returns at once when entries exist, so the pull is the single
// blocking read. Each entry may itself be a packed batch frame, so the
// returned batch can exceed max — max is advisory.
//
// A refill is one round trip where it can be: the first read always goes to
// the home shard, and the home shard's unfenced release (XACK + INCRBY)
// rides the same pipeline ahead of it. Releases on other shards go first as
// their own pipelines. A fenced release (FENCEXACK, under recoverStale)
// keeps its own round trip, so its retry-safety is not lost inside a
// pipeline with a read.
//
// Because stream deliveries are irreversible (entries enter this consumer's
// PEL on their shard), a batch read may carry several poison pills; the
// worker loop re-routes any surplus to its siblings.
func (t *RedisTransport) PullBatch(w, max int, timeout time.Duration, release ...Env) ([]Env, error) {
	if t.closed.Load() {
		return nil, errTransportClosed
	}
	if max < 1 {
		max = 1
	}
	ws := t.slots[w]
	n := t.cluster.NumShards()
	t.leases[w].timeout = timeout

	// pre is the home shard's release, sent ahead of the first read.
	var pre [][]string
	if len(release) > 0 {
		shards := t.settle(w, release)
		for shard := range shards {
			a := &shards[shard]
			if shard == ws.home && !t.fenced(a) {
				pre = t.releaseCmds(ws.stream, a)
				continue
			}
			if err := t.release(w, shard, a); err != nil {
				return nil, t.maybeClosed(err)
			}
		}
	}

	var local [16]streamFrame
	frames := local[:0]
	shard := ws.home
	// At one shard there is no sweep: the home read below is the only one,
	// blocking when timeout > 0.
	sweep := n
	if n == 1 {
		sweep = 0
	}
	var err error
	for i := 0; i < sweep && len(frames) == 0; i++ {
		shard = (ws.home + i) % n
		if frames, err = t.read(shard, pre, ws, max, 0, frames); err != nil {
			return nil, err
		}
		pre = nil
	}
	if len(frames) == 0 && (timeout > 0 || sweep == 0) {
		shard = ws.home
		if frames, err = t.read(shard, pre, ws, max, timeout, frames); err != nil {
			return nil, err
		}
	}
	reclaimed := false
	if len(frames) == 0 && t.recoverStale {
		// Reclaim tasks whose consumer stopped acknowledging them (crashed
		// or descheduled), sweeping shard by shard: XAUTOCLAIM moves idle
		// pending entries of the shard's partition into this worker's PEL so
		// the stream's at-least-once guarantee actually holds under failures.
		for i := 0; i < n && len(frames) == 0; i++ {
			shard = (ws.home + i) % n
			_, claimed, err := t.cluster.Shard(shard).XAutoClaim(ws.stream, t.keys.Group, ws.consumer, t.minIdle(timeout), "0-0", max)
			if err != nil {
				continue
			}
			for _, e := range claimed {
				frames = append(frames, streamFrame{id: e.ID, data: e.Fields[taskField]})
			}
			reclaimed = len(frames) > 0
		}
	}
	if len(frames) == 0 {
		return nil, nil
	}
	envs, err := t.deliver(w, shard, frames, reclaimed)
	if err != nil {
		return nil, err
	}
	if reclaimed && t.diag != nil {
		t.diag.Log(diagnosis.EvReclaim, w, "",
			fmt.Sprintf("%d stalled entries adopted on shard %d", len(frames), shard), int64(len(envs)))
	}
	return envs, nil
}

// streamFrame is one stream entry as pulled: its ID and its encoded batch.
type streamFrame struct {
	id, data string
}

// read sends one XREADGROUP for worker slot ws to shard, blocking up to
// block (zero reads without blocking), with pre pipelined ahead of it, and
// appends the entries read to frames.
func (t *RedisTransport) read(shard int, pre [][]string, ws workerSlot, count int, block time.Duration, frames []streamFrame) ([]streamFrame, error) {
	argv := make([]string, 0, 11)
	argv = append(argv, "XREADGROUP", "GROUP", t.keys.Group, ws.consumer, "COUNT", strconv.Itoa(count))
	if block > 0 {
		// BLOCK 0 means block forever: round a sub-millisecond block up.
		argv = append(argv, "BLOCK", strconv.FormatInt(max(block.Milliseconds(), 1), 10))
	}
	argv = append(argv, "STREAMS", ws.stream, ">")
	replies, err := t.cluster.Shard(shard).Pipeline(append(pre, argv))
	if err != nil {
		return frames, t.maybeClosed(err)
	}
	// The reply is [[stream, [[id, [field, value, …]], …]]], or nil when
	// nothing was read.
	for _, sv := range replies[len(replies)-1].Array {
		if len(sv.Array) != 2 {
			continue
		}
		for _, ev := range sv.Array[1].Array {
			if len(ev.Array) != 2 {
				continue
			}
			f := streamFrame{id: ev.Array[0].Str}
			fv := ev.Array[1].Array
			for i := 0; i+1 < len(fv); i += 2 {
				if fv[i].Str == taskField {
					f.data = fv[i+1].Str
				}
			}
			frames = append(frames, f)
		}
	}
	return frames, nil
}

// deliver fans frames pulled from one shard out as one env per task, all
// sharing their entry's (shard, ID), and registers each entry so Ack can
// XACK it once the last of its tasks is released. The frames are decoded
// first, so the envs are allocated once at the total task count. A
// re-delivered entry (XAUTOCLAIM bouncing it back to this worker) resets its
// bookkeeping — redelivery means full re-execution.
func (t *RedisTransport) deliver(w, shard int, frames []streamFrame, reclaimed bool) ([]Env, error) {
	var local [16][]Task
	decoded := local[:0]
	total := 0
	for _, f := range frames {
		tasks, err := codec.DecodeBatch(f.data)
		if err != nil {
			return nil, err
		}
		decoded = append(decoded, tasks)
		total += len(tasks)
	}
	reg := t.frames[w]
	envs := make([]Env, 0, total)
	for i, f := range frames {
		nonPoison := 0
		for _, task := range decoded[i] {
			if !task.Poison {
				nonPoison++
			}
			if reclaimed && t.diag != nil && !task.Poison {
				// Cold path (failure recovery): per-PE replay attribution may
				// take the ledger lock per task.
				t.diag.PE(task.PE).Replays.Inc()
			}
			envs = append(envs, Env{Task: task, AckID: f.id, Shard: shard})
		}
		reg[frameKey{shard: shard, id: f.id}] = entryState{remaining: len(decoded[i]), tasks: nonPoison}
	}
	return envs, nil
}

// ackShard accumulates one shard's slice of a release.
type ackShard struct {
	// direct counts non-poison envs without a delivery ID (duplicate
	// deliveries stripped of their entry identity): not claimable, their
	// decrement lands as-is.
	direct int
	// streamTasks counts the non-poison stream tasks released by this call.
	streamTasks int
	completed   []doneEntry
}

// Ack implements Transport at entry-range granularity: each env releases one
// task of its stream entry, and the entry's XACK is issued on the entry's
// own shard only when every task delivered from it has been released.
// Unfenced, one pipelined round trip per involved shard carries the
// multi-ID XACK of the shard's completed entries plus a single
// pending-counter decrement for its released tasks. A shard's decrement
// always lands on the shard whose counter the task incremented — the env's
// Shard, stamped at pull time.
//
// With recoverStale on, stream acknowledgements are fenced by consumer: an
// XAUTOCLAIM may have moved a delivery to another consumer while this
// worker was still processing it, and the original's late XACK + decrement
// landing anyway would under-count the shard's pending counter — the
// coordinator would observe a drained transport while the claimed task is
// still in flight and start terminating early. fencedAck closes this with
// one atomic FENCEXACK per shard: ownership check, PEL removal and counter
// decrement in a single server-side step, no window between them.
func (t *RedisTransport) Ack(w int, envs ...Env) error {
	shards := t.settle(w, envs)
	for shard := range shards {
		if err := t.release(w, shard, &shards[shard]); err != nil {
			return t.maybeClosed(err)
		}
	}
	return nil
}

// settle books released envs against worker w's entry registry and splits
// the release by shard: element s is shard s's share.
func (t *RedisTransport) settle(w int, envs []Env) []ackShard {
	reg := t.frames[w]
	shards := make([]ackShard, t.cluster.NumShards())
	// Envs from one entry arrive contiguously (PullBatch fans frames out in
	// order and the worker loop preserves it), so a linear run-group scan
	// replaces a map.
	for i := 0; i < len(envs); {
		env := envs[i]
		if env.AckID == "" {
			if !env.Poison {
				shards[env.Shard].direct++
			}
			i++
			continue
		}
		id, shard := env.AckID, env.Shard
		acked, nonPoison := 0, 0
		for i < len(envs) && envs[i].AckID == id && envs[i].Shard == shard {
			acked++
			if !envs[i].Poison {
				nonPoison++
			}
			i++
		}
		a := &shards[shard]
		a.streamTasks += nonPoison
		key := frameKey{shard: shard, id: id}
		es, ok := reg[key]
		if !ok {
			// Not in this worker's registry: a duplicate delivery or a
			// repeated ack of an entry already completed. Treat it as a
			// self-contained completed entry weighted by what this call saw;
			// under fencing the ownership filter and the XACK removal count
			// decide whether anything actually lands.
			a.completed = append(a.completed, doneEntry{id: id, tasks: nonPoison})
			continue
		}
		es.remaining -= acked
		if es.remaining <= 0 {
			a.completed = append(a.completed, doneEntry{id: id, tasks: es.tasks})
			delete(reg, key)
		} else {
			reg[key] = es
		}
	}
	return shards
}

// fenced reports whether a shard's release must go through FENCEXACK.
func (t *RedisTransport) fenced(a *ackShard) bool {
	return t.recoverStale && (len(a.completed) > 0 || a.streamTasks > 0)
}

// releaseCmds is an unfenced release of one shard: the multi-ID XACK of its
// completed entries and one pending-counter decrement, nil when there is
// nothing to release. The slice has room for the read PullBatch appends.
func (t *RedisTransport) releaseCmds(stream string, a *ackShard) [][]string {
	n := a.direct + a.streamTasks
	if len(a.completed) == 0 && n == 0 {
		return nil
	}
	cmds := make([][]string, 0, 3)
	if len(a.completed) > 0 {
		xack := make([]string, 0, len(a.completed)+3)
		xack = append(xack, "XACK", stream, t.keys.Group)
		for _, d := range a.completed {
			xack = append(xack, d.id)
		}
		cmds = append(cmds, xack)
	}
	if n > 0 {
		cmds = append(cmds, []string{"INCRBY", t.keys.PendingKey, strconv.Itoa(-n)})
	}
	return cmds
}

// release sends one shard's share of a release in its own round trip.
func (t *RedisTransport) release(w, shard int, a *ackShard) error {
	if t.fenced(a) {
		return t.fencedAck(w, shard, a.direct, a.completed)
	}
	cmds := t.releaseCmds(t.slots[w].stream, a)
	if len(cmds) == 0 {
		return nil
	}
	_, err := t.cluster.Shard(shard).Pipeline(cmds)
	return err
}

// doneEntry is a stream entry whose delivered tasks are all released:
// eligible for XACK, worth tasks pending-counter units on removal.
type doneEntry struct {
	id    string
	tasks int
}

// fencedAck releases one shard's completed entries under at-least-once
// replay with one FENCEXACK compound command: ownership filter, PEL removal
// and pending-counter decrement execute as a single atomic server-side step.
// Two properties fall out directly:
//
//   - no double decrement: the server removes each entry from the PEL and
//     credits its packed task weight in the same atomic section, so however
//     duplicate ackers interleave, exactly one decrement lands per entry;
//   - no late release at all: an entry is acknowledged only while this
//     consumer owns it per the server's own PEL at execution time, so a
//     delivery claimed away mid-processing stays pending until its new
//     owner releases it. The old read-filter-then-XACK sequence left a
//     one-round-trip window where a claim could slip between the check and
//     the ack; the compound command has no between.
//
// Under fencing, stream tasks therefore decrement in whole-entry units when
// their entry completes — never per env — so a partially acked frame holds
// its full weight on the pending counter until its last task releases.
// The command is retried by the client only when its direct decrement is
// zero (the PEL half is ownership-fenced and idempotent; the direct counter
// adjustment is not).
func (t *RedisTransport) fencedAck(w, shard int, direct int, completed []doneEntry) error {
	if direct == 0 && len(completed) == 0 {
		return nil
	}
	ids := make([]string, len(completed))
	weights := make([]int64, len(completed))
	for i, d := range completed {
		ids[i] = d.id
		weights[i] = int64(d.tasks)
	}
	ws := t.slots[w]
	_, _, _, err := t.cluster.Shard(shard).FenceXAck(
		ws.stream, t.keys.Group, ws.consumer,
		t.keys.PendingKey, int64(direct), ids, weights)
	return err
}

// minIdle resolves the recovery idle threshold for a pull with the given
// poll timeout.
func (t *RedisTransport) minIdle(timeout time.Duration) time.Duration {
	if t.RecoverIdle > 0 {
		return t.RecoverIdle
	}
	return 8 * timeout
}

// Extend implements LeaseExtender: it refreshes the idle clock of every
// stream entry worker w still owns, via a self-targeted XCLAIM ... JUSTID
// on each shard holding some of them. Packing made this load-bearing — the
// unit XAUTOCLAIM reclaims is a whole frame whose processing time scales
// with its task count, so without a progress heartbeat any frame slower
// than the idle threshold would be claimed away mid-processing, redelivered
// in full to the claimer, go stale there too, and ping-pong between live
// workers forever (the fenced pending counter, decremented only by the XACK
// that removes an entry, would never drain). With the heartbeat, reclaim
// keys on lack of progress rather than lack of completion: a worker that
// dies or stalls between tasks stops extending and its frames age out
// exactly as before.
//
// The ownership read and the claim are not atomic: an entry claimed away
// between them is stolen back. That one-round-trip race is safe — the
// thief's duplicate execution is absorbed by the state fence, the atomic
// FENCEXACK lets exactly one owner release the entry, and both contenders
// are by construction alive.
// Heartbeats are throttled to a quarter of the idle threshold, so the
// steady-state cost is two round trips per threshold-quarter, not per task.
func (t *RedisTransport) Extend(w int) error {
	if !t.recoverStale || t.closed.Load() {
		return nil
	}
	reg := t.frames[w]
	if len(reg) == 0 {
		return nil
	}
	ls := &t.leases[w]
	minIdle := t.minIdle(ls.timeout)
	if minIdle <= 0 {
		return nil
	}
	now := time.Now()
	if !ls.last.IsZero() && now.Sub(ls.last) < minIdle/4 {
		return nil
	}
	ls.last = now
	stream, consumer := t.slots[w].stream, t.slots[w].consumer
	perShard := map[int]int{}
	for fk := range reg {
		perShard[fk.shard]++
	}
	extended := int64(0)
	for shard, count := range perShard {
		cl := t.cluster.Shard(shard)
		owned, err := cl.XPendingIDs(stream, t.keys.Group, consumer, count+256)
		if err != nil {
			return t.maybeClosed(err)
		}
		ids := owned[:0]
		for _, id := range owned {
			if _, ok := reg[frameKey{shard: shard, id: id}]; ok {
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 {
			continue
		}
		if _, err := cl.XClaimJustID(stream, t.keys.Group, consumer, 0, ids); err != nil {
			return t.maybeClosed(err)
		}
		extended += int64(len(ids))
	}
	if extended > 0 && t.diag != nil {
		t.diag.Log(diagnosis.EvLease, w, "", "heartbeat", extended)
	}
	return nil
}

// QueueDepths implements DepthReporter: each partition's entry count —
// the pool stream plus one "priv:<pe>:<i>" stream per pinned instance. On a
// multi-shard cluster every gauge is reported per shard under an "s<i>:"
// prefix ("s0:stream", "s1:priv:pe:0", …) so a hot shard is visible as
// such; a single-shard cluster keeps the legacy unprefixed names. Sampling
// errors skip the affected entry (the gauge set shrinks rather than failing
// the sample).
func (t *RedisTransport) QueueDepths() map[string]int64 {
	out := map[string]int64{}
	n := t.cluster.NumShards()
	for s := 0; s < n; s++ {
		cl := t.cluster.Shard(s)
		prefix := ""
		if n > 1 {
			prefix = fmt.Sprintf("s%d:", s)
		}
		if v, err := cl.XLen(t.keys.Queue); err == nil {
			out[prefix+"stream"] = v
		}
		for _, spec := range t.plan.Workers {
			if !spec.Pinned() {
				continue
			}
			if v, err := cl.XLen(t.keys.PrivKey(spec.PE, spec.Instance)); err == nil {
				out[fmt.Sprintf("%spriv:%s:%d", prefix, spec.PE, spec.Instance)] = v
			}
		}
	}
	return out
}

// Pending implements Transport: the scatter-gathered sum of the per-shard
// outstanding-task counters. The sum is safe as a termination signal
// because a task's decrement (on its own shard, at ack time) is only issued
// after its children's increments (on whatever shards routing chose) have
// durably landed — a transient cross-shard zero cannot hide in-flight work.
func (t *RedisTransport) Pending() (int64, error) {
	total, err := t.cluster.SumInt(func(_ int, cl *redisclient.Client) (int64, error) {
		s, ok, err := cl.Get(t.keys.PendingKey)
		if err != nil || !ok {
			return 0, err
		}
		return strconv.ParseInt(s, 10, 64)
	})
	if err != nil {
		return 0, t.maybeClosed(err)
	}
	return total, nil
}

// Done implements Transport. The cluster itself stays open — the planner
// owns it and still needs it for cleanup.
func (t *RedisTransport) Done() error {
	t.closed.Store(true)
	return nil
}

// Cleanup removes the run's queue, counter and private-stream keys from
// every shard.
func (t *RedisTransport) Cleanup(g *graph.Graph) {
	keys := []string{t.keys.Queue, t.keys.PendingKey}
	for _, spec := range t.plan.Workers {
		if spec.Pinned() {
			keys = append(keys, t.keys.PrivKey(spec.PE, spec.Instance))
		}
	}
	_ = t.cluster.Each(func(_ int, cl *redisclient.Client) error {
		_, _ = cl.Del(keys...)
		return nil
	})
}

// maybeClosed maps client errors after shutdown onto the closed sentinel so
// the worker loop unwinds silently instead of reporting a spurious failure.
func (t *RedisTransport) maybeClosed(err error) error {
	if err != nil && t.closed.Load() {
		return errTransportClosed
	}
	return err
}
