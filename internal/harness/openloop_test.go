package harness

import (
	"strings"
	"testing"
	"time"

	_ "repro/internal/redismap"
	_ "repro/internal/runtime" // register the in-process mappings
)

// quickOpenLoop is a sub-second open-loop configuration for tests.
func quickOpenLoop(mappingName, workload string) OpenLoopConfig {
	return OpenLoopConfig{
		Mapping:  mappingName,
		Workload: workload,
		// Small worker count keeps the embedded server light.
		Processes: 3,
		Rate:      400,
		Duration:  300 * time.Millisecond,
		Users:     500,
		Seed:      11,
	}
}

func TestRunOpenLoopSessionDynMulti(t *testing.T) {
	r := &Runner{}
	p, err := r.RunOpenLoop(quickOpenLoop("dyn_multi", "session"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Offered == 0 {
		t.Fatal("pacer offered no events")
	}
	if p.Delivered != p.Offered {
		t.Fatalf("delivered %d of %d offered — events lost or duplicated", p.Delivered, p.Offered)
	}
	if p.P50 <= 0 || p.P99 < p.P50 || p.Max < p.P99 {
		t.Fatalf("latency percentiles inconsistent: p50=%v p99=%v max=%v", p.P50, p.P99, p.Max)
	}
	if p.OfferedRate <= 0 || p.GenSeconds <= 0 {
		t.Fatalf("rate accounting empty: %+v", p)
	}
}

func TestRunOpenLoopRelayDynRedis(t *testing.T) {
	r := &Runner{}
	defer r.Close()
	p, err := r.RunOpenLoop(quickOpenLoop("dyn_redis", "relay"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Offered == 0 || p.Delivered != p.Offered {
		t.Fatalf("relay through dyn_redis lost events: delivered %d of %d", p.Delivered, p.Offered)
	}
}

func TestOpenLoopRenderers(t *testing.T) {
	pts := []OpenLoopPoint{{
		Workload: "session", Mapping: "dyn_redis", Processes: 8,
		TargetRate: 1000, OfferedRate: 998, DeliveredRate: 995,
		Offered: 29940, Delivered: 29940, GenSeconds: 30, DrainSeconds: 0.2,
		P50: 2 * time.Millisecond, P99: 9 * time.Millisecond, Max: 30 * time.Millisecond,
		Sustainable: true,
	}}
	table := RenderOpenLoop("open loop", pts)
	if !strings.Contains(table, "dyn_redis") || !strings.Contains(table, "sustainable") {
		t.Fatalf("table missing columns:\n%s", table)
	}
	csv := OpenLoopCSV(pts)
	if !strings.Contains(csv, "p99_ms") || !strings.Contains(csv, "session,dyn_redis,8,1000") {
		t.Fatalf("csv missing fields:\n%s", csv)
	}
}
