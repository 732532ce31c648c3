package redisclient

import (
	"errors"
	"math/rand"
	"strings"
	"time"

	"repro/internal/faultinject"
)

// CmdError wraps a command failure with the name of the command that failed,
// so callers see "redisclient: FENCEAPPLY: ..." instead of a bare error
// string with no context. It unwraps to the underlying cause, keeping
// errors.Is(err, ErrClosed) and errors.As(err, &ServerError) working.
type CmdError struct {
	// Cmd is the command verb that failed, as sent.
	Cmd string
	// Err is the underlying cause: a ServerError for error replies, a
	// transport error otherwise.
	Err error
}

// Error implements the error interface.
func (e *CmdError) Error() string {
	return "redisclient: " + strings.ToUpper(e.Cmd) + ": " + e.Err.Error()
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *CmdError) Unwrap() error { return e.Err }

// Retryable classifies the failure: true for transient faults (broken
// connections, timeouts, LOADING/BUSY/TRYAGAIN replies) where re-sending a
// retry-safe command may succeed, false for terminal replies (WRONGTYPE,
// NOGROUP, malformed arguments) where it cannot.
func (e *CmdError) Retryable() bool { return retryableError(e.Err) }

// retryableError reports whether an underlying failure is transient.
func retryableError(err error) bool {
	if errors.Is(err, ErrClosed) || errors.Is(err, faultinject.ErrKill) {
		return false
	}
	var se ServerError
	if errors.As(err, &se) {
		s := string(se)
		return strings.HasPrefix(s, "LOADING") ||
			strings.HasPrefix(s, "BUSY ") ||
			strings.HasPrefix(s, "TRYAGAIN")
	}
	var sf faultinject.ServerFault
	if errors.As(err, &sf) {
		return false
	}
	// Everything else is transport-level: refused dials, broken pipes, read
	// timeouts, injected connection drops.
	return true
}

// Retryable reports whether a command is safe to re-send when its reply was
// lost — the server may or may not have executed the first attempt, so only
// commands whose double execution is indistinguishable from a single one
// qualify. Three groups pass:
//
//   - reads, which have no effect to double;
//   - absolute-effect writes (SET, HSET, DEL, HDEL, XACK, XGROUP CREATE),
//     where applying twice equals applying once;
//   - fenced compounds (FENCEAPPLY, SINKAPPEND), where the server-side
//     applied ledger absorbs the duplicate.
//
// Relative-effect writes (INCRBY, HINCRBY, XADD, group reads and claims) stay
// single-shot. The classification is argv-aware where it must be: SET..NX is
// excluded (a lost "acquired" reply would leave the lock stuck while the
// retry reports failure), and FENCEXACK is retryable only when its direct
// decrement is zero — the PEL acks are ownership-fenced but the direct
// counter adjustment is not idempotent.
func Retryable(argv []string) bool {
	if len(argv) == 0 {
		return false
	}
	verb := strings.ToUpper(argv[0])
	switch verb {
	case "SET":
		for _, a := range argv[2:] {
			if strings.EqualFold(a, "NX") {
				return false
			}
		}
		return true
	case "XCLAIM":
		// JUSTID claims only refresh idle clocks — repeating is harmless.
		for _, a := range argv[4:] {
			if strings.EqualFold(a, "JUSTID") {
				return true
			}
		}
		return false
	case "FENCEXACK":
		return len(argv) > 5 && argv[5] == "0"
	}
	return retrySafe[verb]
}

// retrySafe lists the verbs Retryable passes whatever their arguments; SET,
// XCLAIM and FENCEXACK are classified per argv above.
var retrySafe = map[string]bool{
	"PING": true, "KEYS": true, "GET": true,
	"HGET": true, "HGETALL": true, "HKEYS": true, "HLEN": true,
	"XLEN": true, "XPENDING": true, "XINFO": true,
	"DEL": true, "HDEL": true, "XACK": true, "HSET": true, "XGROUP": true,
	"FENCEAPPLY": true, "SINKAPPEND": true,
}

// backoff computes the sleep before retry attempt (1-based): base doubled
// per attempt, capped, with ±50% jitter so colliding retriers spread out.
func backoff(base, cap time.Duration, attempt int) time.Duration {
	if base <= 0 {
		base = time.Millisecond
	}
	d := base << (attempt - 1)
	if cap > 0 && d > cap {
		d = cap
	}
	// Jitter in [0.5, 1.5); the top-level rand functions are thread-safe.
	return time.Duration(float64(d) * (0.5 + rand.Float64()))
}
