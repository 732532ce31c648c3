package main

import (
	"fmt"
	"reflect"
	"sync"
	"time"

	"repro/internal/autoscale"
	"repro/internal/core"
	"repro/internal/diagnosis"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/platform"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/workflows/sentiment"
)

// The sentiment workload is the paper's stateful workflow on managed state,
// run closed loop (the reader emits the whole corpus as fast as the
// pipeline admits) on hybrid_auto_redis with 16 processes on the simulated
// 16-core server. Its PEs' ctx.Work service times are the only modeled cost
// in the benchmark; auto-scaling and scheduling decide the result.
const (
	sentimentArticles = 100
	sentimentProcs    = 16
	sentimentMapping  = "hybrid_auto_redis"
	sentimentStatic   = "hybrid_redis"
)

// articleTap times each article from the reader's emission to the end of
// its AFINN scoring, the first pool stage, whose queue wait is where the
// auto-scaler's pool size shows. It wraps the two nodes' factories from the
// benchmark side; the workflow's PEs are unchanged.
type articleTap struct {
	mu   sync.Mutex
	sent map[int]time.Time
	last time.Time
	lat  []int64
	gaps []int64 // between consecutive emissions
}

func newArticleTap() *articleTap { return &articleTap{sent: map[int]time.Time{}} }

func (t *articleTap) emitted(id int) {
	now := time.Now()
	t.mu.Lock()
	t.sent[id] = now
	if !t.last.IsZero() {
		t.gaps = append(t.gaps, int64(now.Sub(t.last)))
	}
	t.last = now
	t.mu.Unlock()
}

func (t *articleTap) scored(id int) {
	now := time.Now()
	t.mu.Lock()
	if at, ok := t.sent[id]; ok {
		t.lat = append(t.lat, int64(now.Sub(at)))
	}
	t.mu.Unlock()
}

type tapSource struct {
	core.Source
	tap *articleTap
}

func (s *tapSource) Generate(ctx *core.Context) error {
	return s.Source.Generate(ctx.WithEmit(ctx.PEName(), func(port string, v any) error {
		if a, ok := v.(synth.Article); ok {
			s.tap.emitted(a.ID)
		}
		return ctx.Emit(port, v)
	}))
}

type tapScorer struct {
	core.PE
	tap *articleTap
}

func (s *tapScorer) Process(ctx *core.Context, port string, v any) error {
	err := s.PE.Process(ctx, port, v)
	if a, ok := v.(synth.Article); ok && err == nil {
		s.tap.scored(a.ID)
	}
	return err
}

func (t *articleTap) wrap(g *graph.Graph) {
	src := g.Node("readArticles")
	newSrc := src.Factory
	src.Factory = func() core.PE { return &tapSource{Source: newSrc().(core.Source), tap: t} }
	sc := g.Node("sentimentAFINN")
	newSc := sc.Factory
	sc.Factory = func() core.PE { return &tapScorer{PE: newSc(), tap: t} }
}

// sentimentJob is one measured run of the workflow.
type sentimentJob struct {
	makespan time.Duration
	process  time.Duration
	outputs  int64
	tasks    int64
	stateOps int64
	top3     []sentiment.StateScore
	cpu      time.Duration
	heapMB   float64
	lat      []int64
	gaps     []int64
	report   string
}

// jobRun configures one sentiment execution.
type jobRun struct {
	mapping  string
	articles int
	seed     int64
	addr     string // empty for in-process mappings
	tap      bool
	trace    *autoscale.Trace
	tel      *telemetry.Registry
	diag     *diagnosis.Diag
}

func (r jobRun) execute() (sentimentJob, error) {
	m, err := mapping.Get(r.mapping)
	if err != nil {
		return sentimentJob{}, err
	}
	var (
		mu  sync.Mutex
		top []sentiment.StateScore
	)
	g := sentiment.New(sentiment.Config{
		Articles:     r.articles,
		Seed:         r.seed,
		ManagedState: true,
		OnTop3: func(s []sentiment.StateScore) {
			mu.Lock()
			top = append([]sentiment.StateScore(nil), s...)
			mu.Unlock()
		},
	})
	var tap *articleTap
	if r.tap {
		tap = newArticleTap()
		tap.wrap(g)
	}
	opts := mapping.Options{
		Processes: sentimentProcs,
		Platform:  platform.Server,
		Seed:      r.seed,
		Trace:     r.trace,
		Telemetry: r.tel,
		Diagnosis: r.diag,
	}
	if r.tel != nil {
		opts.TelemetryEvery = 100 * time.Millisecond
	}
	if r.addr != "" {
		opts.RedisAddr = r.addr
		opts.RedisAddrs = []string{r.addr}
	}
	heap := startHeapSampler()
	cpu0 := cpuTime()
	rep, err := m.Execute(g, opts)
	cpu := cpuTime() - cpu0
	heapMB := heap.Stop()
	if err != nil {
		return sentimentJob{}, fmt.Errorf("sentiment %s: %w", r.mapping, err)
	}
	j := sentimentJob{
		makespan: rep.Runtime,
		process:  rep.ProcessTime,
		outputs:  rep.Outputs,
		tasks:    rep.Tasks,
		stateOps: rep.State.Total(),
		cpu:      cpu,
		heapMB:   heapMB,
		report:   rep.String(),
	}
	mu.Lock()
	j.top3 = top
	mu.Unlock()
	if tap != nil {
		j.lat = tap.lat
		j.gaps = tap.gaps
		sortInt64(j.gaps)
	}
	return j, nil
}

// matches reports whether a job reproduced the oracle's result.
func (j sentimentJob) matches(oracle sentimentJob) bool {
	return j.outputs == oracle.outputs && reflect.DeepEqual(j.top3, oracle.top3)
}

// sentimentOracle runs the simple mapping on the same corpus. It is the
// reference result and, since simple runs every PE's service time
// sequentially, its runtime is the corpus's total modeled work.
func sentimentOracle(seed int64) (sentimentJob, error) {
	o, err := jobRun{mapping: "simple", articles: sentimentArticles, seed: seed}.execute()
	if err != nil {
		return o, err
	}
	if len(o.top3) == 0 {
		return o, fmt.Errorf("sentiment oracle produced no top-3")
	}
	fmt.Printf("oracle   simple: %s top3=%v\n", o.report, o.top3)
	fmt.Printf("modeled  PE ctx.Work per article: %.3f ms (simple runtime / articles)\n", float64(o.makespan.Microseconds())/1e3/sentimentArticles)
	return o, nil
}

func runSentiment(cfg config) (result, error) {
	if cfg.trace {
		return tracedSentiment(cfg)
	}
	var res result
	oracle, err := sentimentOracle(cfg.seed)
	if err != nil {
		return res, err
	}
	setup, err := timeSetup(5, func(addr string) error {
		_, err := jobRun{mapping: sentimentMapping, articles: 1, seed: cfg.seed, addr: addr}.execute()
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

	var makespan, process, cpu, heap, jp99 []float64
	var lat []int64
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for jobs := 0; jobs < 3 || time.Now().Before(deadline); jobs++ {
		j, err := jobRun{mapping: sentimentMapping, articles: sentimentArticles, seed: cfg.seed, addr: srv.Addr(), tap: true}.execute()
		if err != nil {
			return res, err
		}
		ok := j.matches(oracle)
		fmt.Printf("job      %s top3_ok=%v\n", j.report, ok)
		res.Attempted += sentimentArticles
		if !ok {
			res.Failed += sentimentArticles
		}
		makespan = append(makespan, j.makespan.Seconds())
		process = append(process, j.process.Seconds())
		cpu = append(cpu, float64(j.cpu.Microseconds())/sentimentArticles)
		heap = append(heap, j.heapMB)
		lat = append(lat, j.lat...)
		sortInt64(j.lat)
		jp99 = append(jp99, ms(quantile(j.lat, 0.99)))
	}
	sortInt64(lat)
	res.Correct = res.Failed == 0
	mk := median(makespan)
	res.set("max_rate", "events/s", sentimentArticles/mk)
	res.set("p50_ms", "ms", ms(quantile(lat, 0.50)))
	res.set("cpu_us_per_event", "us", median(cpu))
	res.set("peak_heap_mb", "MB", median(heap))
	res.set("makespan_s", "s", mk)
	res.set("process_s", "s", median(process))
	res.set("setup_s", "s", setup)
	fmt.Printf("info     p99_ms %.4f (median over jobs of each job's p99; reported by the traced run as e2e.p99_ms)\n", median(jp99))
	return res, nil
}
