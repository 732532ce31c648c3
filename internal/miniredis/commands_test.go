package miniredis

import (
	"sort"
	"strings"
	"testing"
)

// TestCommandTable pins the registered command set to the one listed in the
// package doc: the protocol the engine speaks, and nothing more.
func TestCommandTable(t *testing.T) {
	want := strings.Fields(`PING DEL KEYS INFO GET SET INCRBY
		HSET HGET HDEL HGETALL HKEYS HLEN HINCRBY
		XADD XLEN XTRIM XGROUP XREADGROUP XACK XPENDING XCLAIM XAUTOCLAIM XINFO
		FENCEAPPLY FENCEXACK SINKAPPEND`)
	got := make([]string, 0, len(commandTable))
	for name := range commandTable {
		got = append(got, name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("registered commands:\n got  %v\n want %v", got, want)
	}
}
