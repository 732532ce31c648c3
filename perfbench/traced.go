package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/autoscale"
	"repro/internal/mapping"
	"repro/internal/platform"
	"repro/internal/synth"
)

// traced is the traced run of relay or session. One input prefix is run
// four times: through simple (baseline and oracle), untraced on dyn_redis
// (the CPU the ledger reconciles against, command counts), traced on
// dyn_redis (telemetry registry and diagnosis plane only, so their overhead
// is what the CPU difference shows), and through the byte-counting proxy
// with the data-plane key sampler. The layer micro-measurements then
// run on the same payloads at the pull batch size the traced run saw.
//
// platform.ideal_makespan_s is the simple run's time over the simulated
// server's cores on every workload: the sequential work spread perfectly.
func (w streamWorkload) traced(cfg config) (result, error) {
	var res result
	lv := layerValues{}
	m, err := mapping.Get("dyn_redis")
	if err != nil {
		return res, err
	}
	simple, err := mapping.Get("simple")
	if err != nil {
		return res, err
	}
	events := w.events(cfg.seed, int(w.refRate*cfg.seconds/4))
	n := float64(len(events))
	account := func(what string, p probe) {
		fmt.Printf("%-8s %s\n", what, p)
		res.Attempted += int64(p.offered)
		res.Failed += p.failed
	}

	base, err := w.runStream(simple, mapping.Options{Processes: 1, Platform: platform.Server, Seed: cfg.seed}, events, math.Inf(1))
	if err != nil {
		return res, err
	}
	account("simple", base)
	lv["baseline.simple_events_per_s"] = n / base.wall.Seconds()
	lv["platform.ideal_makespan_s"] = base.wall.Seconds() / float64(platform.Server.Cores)

	srv, err := startServer()
	if err != nil {
		return res, err
	}
	defer srv.Close()
	opts := w.options(cfg.seed, srv.Addr())

	cmd0 := srv.Commands()
	u, err := w.runStream(m, opts, events, w.refRate)
	if err != nil {
		return res, err
	}
	account("untraced", u)
	lv["miniredis.commands_per_event"] = float64(srv.Commands()-cmd0) / n
	lv["state.ops_per_event"] = float64(u.report.State.Total()) / n
	lv["gen.late_p99_ms"] = ms(u.lateP99)
	var p99 []float64
	for _, win := range u.windows {
		p99 = append(p99, ms(win.p99))
	}
	lv["e2e.p99_ms"] = median(p99)
	lv["gen.offered_frac"] = u.offeredFrac

	reg, diag := newTelemetry()
	topts := opts
	topts.Telemetry, topts.Diagnosis, topts.TelemetryEvery = reg, diag, 100*time.Millisecond
	t, err := w.runStream(m, topts, events, w.refRate)
	if err != nil {
		return res, err
	}
	account("traced", t)
	readTelemetry(lv, reg, n)
	lv["telemetry.overhead_frac"] = t.cpuPerEvent()/u.cpuPerEvent() - 1

	px, err := startProxy(srv.Addr())
	if err != nil {
		return res, err
	}
	ks := startKeySampler(srv.Addr())
	pp, err := w.runStream(m, w.options(cfg.seed, px.Addr()), events, w.refRate)
	entries, ledger := ks.Stop()
	px.Close()
	if err != nil {
		return res, err
	}
	account("proxied", pp)
	lv["miniredis.stream_entries_end"] = float64(entries)
	lv["miniredis.ledger_fields_end"] = float64(ledger)
	lv["miniredis.bytes_per_event"] = float64(px.bytes.Load()) / n
	lv["redisclient.round_trips_per_event"] = float64(px.bursts.Load()) / n

	pe := "relay"
	if w.keyed {
		pe = "sessionize"
	}
	batch := batchOf(pe, int(math.Round(lv["runtime.tasks_per_pull"])), func(i int) any { return events[i%len(events)] })
	if err := benchLayers(lv, srv.Addr(), batch); err != nil {
		return res, err
	}

	directStateLatency(lv)
	// No auto-scaler on these workloads: the run is its own static baseline.
	lv["autoscale.mean_active"] = streamProcs
	lv["autoscale.makespan_vs_static"] = 1
	lv["autoscale.process_vs_static"] = 1

	lv["ledger.explained_frac"] = reconcile(ledgerTerms(lv, float64(u.report.Tasks)/n), u.cpuPerEvent())
	res.Correct = res.Failed == 0
	lv.fill(&res)
	return res, nil
}

// ledgerTerms is the per-event cost decomposition shared by all workloads.
// The transport terms already contain the codec, RESP, client and server
// work of a task, so those layers are printed as "of which" lines and not
// added again.
func ledgerTerms(lv layerValues, tasksPerEvent float64) []ledgerTerm {
	transport := (lv["runtime.push_ns_per_task"] + lv["runtime.pull_ns_per_task"] + lv["runtime.ack_ns_per_task"]) / 1e3
	return []ledgerTerm{
		{"runtime push+pull+ack per task", transport, tasksPerEvent, true},
		{"runtime idle polls (empty XREADGROUP)", lv[emptyPollUS], lv["runtime.idle_polls_per_event"], true},
		{"state AddInt round trip", lv["state.addint_us_p50"], lv["state.ops_per_event"], true},
		{"  of which codec encode+decode", (lv["codec.encode_ns_per_task"] + lv["codec.decode_ns_per_task"]) / 1e3, tasksPerEvent, false},
		{"  of which resp write+read", (lv["resp.write_ns_per_cmd"] + lv["resp.read_ns_per_reply"]) / 1e3, lv["miniredis.commands_per_event"], false},
	}
}

// tracedSentiment is the traced run of sentiment: the simple oracle (also
// the baseline and the modeled-work floor), three untraced auto-scaled jobs
// with the scaler's trace, three static hybrid_redis jobs for the
// auto-vs-static ratios, three traced jobs, one proxied job with the key
// sampler, and the layer micro-measurements on article payloads.
func tracedSentiment(cfg config) (result, error) {
	var res result
	lv := layerValues{}
	oracle, err := sentimentOracle(cfg.seed)
	if err != nil {
		return res, err
	}
	lv["baseline.simple_events_per_s"] = sentimentArticles / oracle.makespan.Seconds()
	lv["platform.ideal_makespan_s"] = oracle.makespan.Seconds() / float64(platform.Server.Cores)
	// The reader is unpaced (closed loop): it offers everything, and its
	// "lateness" is the p99 gap between consecutive article emissions.
	lv["gen.offered_frac"] = 1

	srv, err := startServer()
	if err != nil {
		return res, err
	}
	defer srv.Close()
	job := func(what string, r jobRun) (sentimentJob, error) {
		j, err := r.execute()
		if err != nil {
			return j, err
		}
		ok := j.matches(oracle)
		fmt.Printf("%-8s %s top3_ok=%v\n", what, j.report, ok)
		res.Attempted += sentimentArticles
		if !ok {
			res.Failed += sentimentArticles
		}
		return j, nil
	}
	base := jobRun{mapping: sentimentMapping, articles: sentimentArticles, seed: cfg.seed, addr: srv.Addr()}

	var autoMk, autoProc, cpu, cmds, active, resizes, gaps, p99 []float64
	var tasks, stateOps float64
	for i := 0; i < 3; i++ {
		r := base
		r.trace = &autoscale.Trace{}
		r.tap = true
		c0 := srv.Commands()
		j, err := job("auto", r)
		if err != nil {
			return res, err
		}
		cmds = append(cmds, float64(srv.Commands()-c0)/sentimentArticles)
		autoMk = append(autoMk, j.makespan.Seconds())
		autoProc = append(autoProc, j.process.Seconds())
		cpu = append(cpu, float64(j.cpu.Microseconds())/sentimentArticles)
		tasks, stateOps = float64(j.tasks), float64(j.stateOps)
		mean, changes := scalerStats(r.trace.Points())
		active = append(active, mean)
		resizes = append(resizes, changes)
		gaps = append(gaps, ms(quantile(j.gaps, 0.99)))
		sortInt64(j.lat)
		p99 = append(p99, ms(quantile(j.lat, 0.99)))
	}
	var staticMk, staticProc []float64
	for i := 0; i < 3; i++ {
		r := base
		r.mapping = sentimentStatic
		j, err := job("static", r)
		if err != nil {
			return res, err
		}
		staticMk = append(staticMk, j.makespan.Seconds())
		staticProc = append(staticProc, j.process.Seconds())
	}
	lv["miniredis.commands_per_event"] = median(cmds)
	lv["gen.late_p99_ms"] = median(gaps)
	lv["e2e.p99_ms"] = median(p99)
	lv["state.ops_per_event"] = stateOps / sentimentArticles
	lv["autoscale.mean_active"] = median(active)
	lv["autoscale.resizes"] = median(resizes)
	lv["autoscale.makespan_vs_static"] = median(autoMk) / median(staticMk)
	lv["autoscale.process_vs_static"] = median(autoProc) / median(staticProc)

	// Three traced jobs into one registry, so the worker-loop histograms
	// and the traced CPU are over as many jobs as the untraced side.
	reg, diag := newTelemetry()
	tr := base
	tr.tel, tr.diag = reg, diag
	var tracedCPU []float64
	for i := 0; i < 3; i++ {
		tj, err := job("traced", tr)
		if err != nil {
			return res, err
		}
		tracedCPU = append(tracedCPU, float64(tj.cpu.Microseconds())/sentimentArticles)
	}
	readTelemetry(lv, reg, 3*sentimentArticles)
	untracedCPU := median(cpu)
	lv["telemetry.overhead_frac"] = median(tracedCPU)/untracedCPU - 1

	px, err := startProxy(srv.Addr())
	if err != nil {
		return res, err
	}
	pr := base
	pr.addr = px.Addr()
	ks := startKeySampler(srv.Addr())
	_, err = job("proxied", pr)
	entries, ledger := ks.Stop()
	px.Close()
	if err != nil {
		return res, err
	}
	lv["miniredis.stream_entries_end"] = float64(entries)
	lv["miniredis.ledger_fields_end"] = float64(ledger)
	lv["miniredis.bytes_per_event"] = float64(px.bytes.Load()) / sentimentArticles
	lv["redisclient.round_trips_per_event"] = float64(px.bursts.Load()) / sentimentArticles

	articles := synth.Articles(cfg.seed, sentimentArticles)
	batch := batchOf("sentimentAFINN", int(math.Round(lv["runtime.tasks_per_pull"])), func(i int) any { return articles[i%len(articles)] })
	if err := benchLayers(lv, srv.Addr(), batch); err != nil {
		return res, err
	}
	lv["ledger.explained_frac"] = reconcile(ledgerTerms(lv, tasks/sentimentArticles), untracedCPU)
	res.Correct = res.Failed == 0
	lv.fill(&res)
	return res, nil
}

// scalerStats reduces an auto-scaler trace to the mean active pool size
// over its decisions and the number of decisions that changed the size.
func scalerStats(pts []autoscale.TracePoint) (mean, resizes float64) {
	if len(pts) == 0 {
		return sentimentProcs, 0
	}
	sum := 0.0
	for i, p := range pts {
		sum += float64(p.Active)
		if i > 0 && p.Active != pts[i-1].Active {
			resizes++
		}
	}
	return sum / float64(len(pts)), resizes
}
