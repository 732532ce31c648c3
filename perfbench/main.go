// Command perfbench is the repository's benchmark. It runs one named
// workload against the unmodified engine, checks the outputs against the
// sequential oracle or the replayed input, and prints one JSON result as
// its last line of output:
//
//	perfbench --workload relay|session|sentiment --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with all instrumentation off;
// --trace 1 is the traced run that reports the per-layer metrics. Build and
// run it through run.sh from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/miniredis"
	"repro/internal/platform"

	_ "repro/internal/redismap"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: relay, session or sentiment")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measurement length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run (per-layer metrics), 0 the end-to-end run")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		fail(fmt.Errorf("--seconds must be positive"))
	}

	stamp(cfg)
	var (
		res result
		err error
	)
	switch cfg.workload {
	case "relay":
		res, err = runStreamWorkload(relayWorkload, cfg)
	case "session":
		res, err = runStreamWorkload(sessionWorkload, cfg)
	case "sentiment":
		res, err = runSentiment(cfg)
	default:
		err = fmt.Errorf("unknown workload %q (want relay, session or sentiment)", cfg.workload)
	}
	if err != nil {
		fail(err)
	}
	printMetrics(res)
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// stamp prints the environment every result depends on: host, toolchain,
// commit, and which costs are modeled rather than real.
func stamp(cfg config) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	p := platform.Server
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		goruntime.NumCPU(), goruntime.GOMAXPROCS(0), goruntime.Version(), commit)
	fmt.Printf("run: workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("modeled costs: miniredis OpDelay=0 DispatchDelay=0 shards=1; platform=%s cores=%d QueueOpCost=%v (in-process queues only); PE ctx.Work costs only in sentiment (per-PE constants of the workflow)\n",
		p.Name, p.Cores, p.QueueOpCost)
}

// printMetrics prints every metric by name and unit, one per line.
func printMetrics(r result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-40s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	frac := 0.0
	if r.Attempted > 0 {
		frac = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("metric %-40s %14.6g %s\n", "failed_frac", frac, "ratio")
	fmt.Printf("correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
}

// startServer starts a fresh embedded miniredis with no modeled costs.
func startServer() (*miniredis.Server, error) {
	srv := miniredis.NewServer(miniredis.Options{})
	if err := srv.Start(); err != nil {
		return nil, fmt.Errorf("start miniredis: %w", err)
	}
	return srv, nil
}

// timeSetup measures the set-up a user pays per job: start a fresh embedded
// server and run the workload's graph on one input. One untimed warm-up
// absorbs process-wide lazy initialization; the median of reps is returned.
func timeSetup(reps int, run func(addr string) error) (float64, error) {
	var samples []float64
	for i := 0; i <= reps; i++ {
		t0 := time.Now()
		srv, err := startServer()
		if err != nil {
			return 0, err
		}
		err = run(srv.Addr())
		srv.Close()
		if err != nil {
			return 0, fmt.Errorf("setup run: %w", err)
		}
		if i > 0 {
			samples = append(samples, time.Since(t0).Seconds())
		}
	}
	return median(samples), nil
}
