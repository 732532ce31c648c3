package runtime

import (
	"repro/internal/autoscale"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/state"
)

// Planner is one parallel mapping of the paper's matrix, reduced to the
// decisions that differ between mappings. Its Execute runs the sequence
// every mapping shares: resolve batching and defaults, validate, place the
// workers, connect the transport, attach the auto-scaler, run.
type Planner struct {
	// Label is the registry name; row-specific errors start with it.
	Label string
	// Batch is the default EmitBatch/PullBatch window (1 or
	// mapping.AutoBatch); explicit options win.
	Batch int
	// Check is the row's validation beyond graph.Validate (nil: none).
	Check func(g *graph.Graph, name string) error
	// Place computes the worker plan for the process budget.
	Place func(g *graph.Graph, name string, processes int) (Plan, error)
	// Connect builds the run's transport over the plan.
	Connect func(name string, g *graph.Graph, opts mapping.Options, plan Plan) (Wiring, error)
	// Strategy returns the auto-scaler's default strategy for the plan. A
	// nil Strategy (or a nil result) runs without an auto-scaler;
	// Options.Strategy overrides a non-nil result.
	Strategy func(opts mapping.Options, plan Plan) autoscale.Strategy
	// PinnedIdleStandby is passed through to Config.
	PinnedIdleStandby bool
}

// Wiring is what a row's Connect builds for one run.
type Wiring struct {
	Transport Transport
	// Monitor builds the auto-scaler's metric probe (auto rows only).
	Monitor func(ctrl *autoscale.Controller) func() float64
	// NewStateBackend is the default managed-state backend; nil means a
	// private in-memory one.
	NewStateBackend func() state.Backend
	// Close releases the transport's resources after the run (nil: none).
	Close func()
}

// Name implements mapping.Mapping.
func (p *Planner) Name() string { return p.Label }

// Execute implements mapping.Mapping.
func (p *Planner) Execute(g *graph.Graph, opts mapping.Options) (metrics.Report, error) {
	opts = opts.ResolveBatching(p.Batch, p.Batch).WithDefaults()
	if err := g.Validate(); err != nil {
		return metrics.Report{}, err
	}
	if p.Check != nil {
		if err := p.Check(g, p.Label); err != nil {
			return metrics.Report{}, err
		}
	}
	plan, err := p.Place(g, p.Label, opts.Processes)
	if err != nil {
		return metrics.Report{}, err
	}
	wire, err := p.Connect(p.Label, g, opts, plan)
	if err != nil {
		return metrics.Report{}, err
	}
	if wire.Close != nil {
		defer wire.Close()
	}

	var ctrl *autoscale.Controller
	if p.Strategy != nil {
		if strategy := p.Strategy(opts, plan); strategy != nil {
			cfg := autoscale.Config{}
			if opts.AutoScale != nil {
				cfg = *opts.AutoScale
			}
			cfg.MaxPoolSize = plan.Pool
			if opts.Strategy != nil {
				strategy = opts.Strategy
			}
			ctrl = autoscale.NewController(cfg, strategy, opts.Trace)
			go ctrl.RunMonitor(wire.Monitor(ctrl))
			defer ctrl.Terminate()
		}
	}

	newState := wire.NewStateBackend
	if newState == nil {
		newState = func() state.Backend { return state.NewMemoryBackend() }
	}
	return Execute(g, opts, Config{
		Name:              p.Label,
		Plan:              plan,
		Transport:         wire.Transport,
		Host:              platform.NewHost(opts.Platform),
		Controller:        ctrl,
		NewStateBackend:   newState,
		PinnedIdleStandby: p.PinnedIdleStandby,
	})
}

// The in-process rows. Channel sends, rank mailboxes and the global queue
// are cheap, so batching defaults off: the per-op synchronization cost IS
// the multiprocessing overhead the paper's multi and dyn_multi curves
// measure, and amortizing it silently would change the reproduced
// baselines. Opt in with Options.EmitBatch/PullBatch.
//
// multi and mpi pin one worker per PE instance, so they support stateful
// PEs and every grouping; mpi is static only — its rank transport has no
// shared queue for dynamic scheduling or auto-scaling. dyn_multi and
// dyn_auto_multi share one queue among a pool, the latter gated by the
// Algorithm 1 auto-scaler on the queue-size strategy.
func init() {
	for _, p := range []*Planner{
		{Label: "multi", Batch: 1, Place: placePinned, Connect: connectChan, PinnedIdleStandby: true},
		{Label: "mpi", Batch: 1, Place: placePinned, Connect: connectRanks, PinnedIdleStandby: true},
		{Label: "dyn_multi", Batch: 1, Check: ValidateDynamic, Place: PlacePool, Connect: connectQueue},
		{Label: "dyn_auto_multi", Batch: 1, Check: ValidateDynamic, Place: PlacePool, Connect: connectQueue,
			Strategy: func(mapping.Options, Plan) autoscale.Strategy { return &autoscale.QueueSizeStrategy{Floor: 2} }},
	} {
		mapping.Register(p)
	}
}

// placePinned resolves the instance allocation and pins one worker per
// instance — the static disciplines.
func placePinned(g *graph.Graph, _ string, processes int) (Plan, error) {
	alloc, err := g.AllocateInstances(processes)
	if err != nil {
		return Plan{}, err
	}
	return PinnedPlan(g, alloc), nil
}

// PlacePool puts every node on one shared pool of all the processes — the
// dynamic disciplines.
func PlacePool(g *graph.Graph, _ string, processes int) (Plan, error) {
	return PoolPlan(g, processes), nil
}

func connectChan(_ string, _ *graph.Graph, _ mapping.Options, plan Plan) (Wiring, error) {
	tr, err := NewChanTransport(plan)
	return Wiring{Transport: tr}, err
}

func connectRanks(_ string, _ *graph.Graph, _ mapping.Options, plan Plan) (Wiring, error) {
	world, err := mpi.NewWorld(len(plan.Workers))
	if err != nil {
		return Wiring{}, err
	}
	tr, err := NewRankTransport(world, plan)
	if err != nil {
		world.Close()
		return Wiring{}, err
	}
	return Wiring{Transport: tr, Close: world.Close}, nil
}

func connectQueue(_ string, _ *graph.Graph, opts mapping.Options, _ Plan) (Wiring, error) {
	q := NewQueue(opts.Platform.QueueOpCost)
	return Wiring{
		Transport: NewQueueTransport(q),
		Monitor: func(*autoscale.Controller) func() float64 {
			return func() float64 { return float64(q.Len()) }
		},
	}, nil
}
