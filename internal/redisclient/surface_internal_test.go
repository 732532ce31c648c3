package redisclient

import (
	"testing"

	"repro/internal/miniredis"
)

// engineCommands is one well-formed instance of every command shape the
// engine sends (runtime transport, state backends, fencing, autoscale
// monitor, benchmark samplers), in an order where each succeeds against a
// fresh server.
var engineCommands = [][]string{
	{"PING"},
	{"INFO"},
	{"SET", "ckpt", "snapshot"},
	{"SET", "lock", "owner", "NX", "PX", "1000"},
	{"GET", "ckpt"},
	{"INCRBY", "pending", "3"},
	{"HSET", "st", "k", "v"},
	{"HGET", "st", "k"},
	{"HINCRBY", "st", "n", "1"},
	{"HGETALL", "st"},
	{"HKEYS", "st"},
	{"HLEN", "st"},
	{"HDEL", "st", "k"},
	{"FENCEAPPLY", "st", "fence:1", "SET", "k", "v"},
	{"FENCEAPPLY", "st", "fence:2", "INCR", "n", "2"},
	{"FENCEAPPLY", "st", "fence:3", "DEL", "k"},
	{"XGROUP", "CREATE", "q", "g", "0", "MKSTREAM"},
	{"XADD", "q", "*", "task", "frame"},
	{"SINKAPPEND", "st", "fence:4", "2", "3", "INCRBY", "pending", "1", "5", "XADD", "q", "*", "task", "frame"},
	{"XLEN", "q"},
	{"XREADGROUP", "GROUP", "g", "w0", "COUNT", "2", "BLOCK", "1", "STREAMS", "q", ">"},
	{"XPENDING", "q", "g"},
	{"XPENDING", "q", "g", "-", "+", "10", "w0"},
	{"XINFO", "CONSUMERS", "q", "g"},
	{"XCLAIM", "q", "g", "w0", "0", "0-1", "JUSTID"},
	{"XAUTOCLAIM", "q", "g", "w1", "0", "0-0", "COUNT", "10"},
	{"XACK", "q", "g", "0-1"},
	{"FENCEXACK", "q", "g", "w1", "pending", "0"},
	{"XTRIM", "q", "MAXLEN", "100"},
	{"KEYS", "*"},
	{"DEL", "q", "st", "pending"},
}

// TestEngineVerbsServed guards the client/server protocol against drift:
// every command the engine sends, and every verb Retryable treats as
// retry-safe, must be served by miniredis.
func TestEngineVerbsServed(t *testing.T) {
	srv, err := miniredis.StartTestServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := Dial(srv.Addr())
	defer cl.Close()

	served := map[string]bool{}
	for _, argv := range engineCommands {
		if _, err := cl.Do(argv...); err != nil {
			t.Errorf("%v: %v", argv, err)
		}
		served[argv[0]] = true
	}
	// Retry-safe verbs (argv-aware ones included) must be in the table, so
	// the loop above has shown the server answers them.
	for _, verb := range append([]string{"SET", "XCLAIM", "FENCEXACK"}, keys(retrySafe)...) {
		if !served[verb] {
			t.Errorf("retry-safe verb %s is not in the engine command table", verb)
		}
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
