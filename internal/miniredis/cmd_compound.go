package miniredis

import (
	"strconv"
	"strings"
	"time"

	"repro/internal/resp"
)

// Compound commands: server-side transactions purpose-built for the engine's
// exactly-once machinery. Every command dispatches under the one server lock
// (see Server.dispatch), so each compound below is atomic with respect to all
// other commands — the fence ledger record and the mutation it guards either
// both happen or neither does, which is the property the client-side
// two-round-trip sequences could not give.
//
//	FENCEAPPLY hash ledgerField SET field value   -> [applied, nil]
//	FENCEAPPLY hash ledgerField DEL field         -> [applied, nil]
//	FENCEAPPLY hash ledgerField INCR field delta  -> [applied, value]
//	FENCEXACK stream group consumer pendingKey direct [id weight]...
//	                                              -> [acked, dec, newPending]
//	SINKAPPEND hash ledgerField ncmds (n argv...)... -> applied
//
// All three validate their full argument block before mutating anything, so a
// malformed request leaves the store untouched.
func init() {
	register("FENCEAPPLY", 4, 5, cmdFenceApply)
	register("FENCEXACK", 5, -1, cmdFenceXAck)
	register("SINKAPPEND", 3, -1, cmdSinkAppend)
}

// ledgerRecord bumps the applied-ledger field in hash e and reports whether
// this call was the first record (the mutation must be applied) or a
// duplicate (it must be skipped).
func ledgerRecord(e *entry, ledgerField string) (first bool, errv *resp.Value) {
	var cnt int64
	if v, ok := e.hash[ledgerField]; ok {
		var err error
		if cnt, err = strconv.ParseInt(v, 10, 64); err != nil {
			v := resp.Err("ERR fence ledger value is not an integer")
			return false, &v
		}
	}
	e.hash[ledgerField] = strconv.FormatInt(cnt+1, 10)
	return cnt == 0, nil
}

// cmdFenceApply is fence-check + ledger record + one hash mutation in a
// single atomic step. The reply is a two-element array: applied (1 when the
// mutation ran, 0 when the ledger already held a record and it was skipped)
// and, for INCR, the field's current value either way (nil for SET/DEL).
func cmdFenceApply(s *Server, args []string) resp.Value {
	hashKey, ledgerField, op := args[0], args[1], strings.ToUpper(args[2])
	var field string
	var delta int64
	switch op {
	case "SET":
		if len(args) != 5 {
			return resp.Err("ERR wrong number of arguments for 'fenceapply' SET")
		}
		field = args[3]
	case "DEL":
		if len(args) != 4 {
			return resp.Err("ERR wrong number of arguments for 'fenceapply' DEL")
		}
		field = args[3]
	case "INCR":
		if len(args) != 5 {
			return resp.Err("ERR wrong number of arguments for 'fenceapply' INCR")
		}
		field = args[3]
		var err error
		if delta, err = strconv.ParseInt(args[4], 10, 64); err != nil {
			return resp.Err("ERR value is not an integer or out of range")
		}
	default:
		return resp.Errf("ERR FENCEAPPLY unsupported op '%s'", args[2])
	}

	e, err := s.db.hashFor(hashKey, time.Now())
	if err != nil {
		return errValue(err)
	}
	// INCR must be able to report the current value on both branches, so
	// parse it before recording the ledger.
	var cur int64
	if op == "INCR" {
		if v, ok := e.hash[field]; ok {
			if cur, err = strconv.ParseInt(v, 10, 64); err != nil {
				return resp.Err("ERR hash value is not an integer")
			}
		}
	}
	first, errv := ledgerRecord(e, ledgerField)
	if errv != nil {
		return *errv
	}
	if !first {
		// Duplicate execution: the ledger shows the mutation already applied.
		if op == "INCR" {
			return resp.Arr(resp.Int(0), resp.Int(cur))
		}
		return resp.Arr(resp.Int(0), resp.Nil)
	}
	switch op {
	case "SET":
		e.hash[field] = args[4]
		s.notifyKey(hashKey)
		return resp.Arr(resp.Int(1), resp.Nil)
	case "DEL":
		delete(e.hash, field)
		return resp.Arr(resp.Int(1), resp.Nil)
	default: // INCR
		cur += delta
		e.hash[field] = strconv.FormatInt(cur, 10)
		s.notifyKey(hashKey)
		return resp.Arr(resp.Int(1), resp.Int(cur))
	}
}

// cmdFenceXAck acknowledges stream entries *owned by the named consumer* and
// applies their pending-counter weights plus a direct decrement, all in one
// step. Entries pending under another consumer (reclaimed while this worker
// stalled) are left untouched and contribute nothing to the decrement, so a
// stale worker can never release live work it no longer owns. The reply is
// [acked, dec, newPending].
func cmdFenceXAck(s *Server, args []string) resp.Value {
	stream, groupName, consumer, pendingKey := args[0], args[1], args[2], args[3]
	direct, err := strconv.ParseInt(args[4], 10, 64)
	if err != nil {
		return resp.Err("ERR value is not an integer or out of range")
	}
	rest := args[5:]
	if len(rest)%2 != 0 {
		return resp.Err("ERR wrong number of arguments for 'fencexack' command")
	}
	ids := make([]StreamID, 0, len(rest)/2)
	weights := make([]int64, 0, len(rest)/2)
	for i := 0; i < len(rest); i += 2 {
		id, perr := parseStreamID(rest[i], 0)
		if perr != nil {
			return errValue(perr)
		}
		w, werr := strconv.ParseInt(rest[i+1], 10, 64)
		if werr != nil || w < 0 {
			return resp.Err("ERR value is not an integer or out of range")
		}
		ids = append(ids, id)
		weights = append(weights, w)
	}

	now := time.Now()
	var acked, dec int64
	g, errv := lookupGroup(s, stream, groupName, now)
	if errv != nil {
		// Like XACK, a missing key/group acks nothing — but the direct
		// decrement still applies (it covers work outside the stream).
		if !strings.HasPrefix(errv.Str, "NOGROUP") {
			return *errv
		}
	}
	if g != nil {
		for i, id := range ids {
			pe, ok := g.pending[id]
			if !ok || pe.consumer != consumer {
				continue
			}
			delete(g.pending, id)
			if c, ok := g.consumers[pe.consumer]; ok {
				delete(c.pending, id)
			}
			acked++
			dec += weights[i]
		}
	}
	dec += direct

	var newPending int64
	if dec != 0 {
		v := addToString(s, pendingKey, -dec)
		if v.Type == resp.Error {
			return v
		}
		newPending = v.Int
	} else {
		e, lerr := s.db.lookupKind(pendingKey, kindString, now)
		if lerr != nil {
			return errValue(lerr)
		}
		if e != nil {
			if newPending, err = strconv.ParseInt(e.str, 10, 64); err != nil {
				return resp.Err("ERR value is not an integer or out of range")
			}
		}
	}
	return resp.Arr(resp.Int(acked), resp.Int(dec), resp.Int(newPending))
}

// sinkCmd is one validated SINKAPPEND subcommand.
type sinkCmd struct {
	op    string // XADD | INCRBY
	key   string
	args  []string // XADD fields
	delta int64    // INCRBY
}

// cmdSinkAppend is the fenced transactional append: record the applied-ledger
// field in the state hash and enqueue a whole output batch — pending-counter
// increments (INCRBY) and stream entries (auto-ID XADD) — as one atomic step.
// A duplicate (ledger already recorded) applies nothing and replies 0. The
// whole block is validated, including key types, before any mutation, so a
// bad request cannot leave a half-applied batch.
func cmdSinkAppend(s *Server, args []string) resp.Value {
	ledgerKey, ledgerField := args[0], args[1]
	ncmds, err := strconv.Atoi(args[2])
	if err != nil || ncmds < 0 {
		return resp.Err("ERR value is not an integer or out of range")
	}
	now := time.Now()

	// Parse + validate every subcommand upfront.
	if _, lerr := s.db.lookupKind(ledgerKey, kindHash, now); lerr != nil {
		return errValue(lerr)
	}
	cmds := make([]sinkCmd, 0, ncmds)
	i := 3
	for c := 0; c < ncmds; c++ {
		if i >= len(args) {
			return resp.Err("ERR SINKAPPEND malformed command block")
		}
		n, nerr := strconv.Atoi(args[i])
		if nerr != nil || n < 1 || i+1+n > len(args) {
			return resp.Err("ERR SINKAPPEND malformed command block")
		}
		argv := args[i+1 : i+1+n]
		i += 1 + n
		op := strings.ToUpper(argv[0])
		switch op {
		case "XADD":
			// Only the auto-ID form the transport emits is supported.
			if n < 5 || argv[2] != "*" || (n-3)%2 != 0 {
				return resp.Err("ERR SINKAPPEND malformed XADD")
			}
			if _, lerr := s.db.lookupKind(argv[1], kindStream, now); lerr != nil {
				return errValue(lerr)
			}
			cmds = append(cmds, sinkCmd{op: op, key: argv[1], args: argv[3:]})
		case "INCRBY":
			if n != 3 {
				return resp.Err("ERR SINKAPPEND malformed INCRBY")
			}
			delta, derr := strconv.ParseInt(argv[2], 10, 64)
			if derr != nil {
				return resp.Err("ERR value is not an integer or out of range")
			}
			e, lerr := s.db.lookupKind(argv[1], kindString, now)
			if lerr != nil {
				return errValue(lerr)
			}
			if e != nil {
				if _, perr := strconv.ParseInt(e.str, 10, 64); perr != nil {
					return resp.Err("ERR value is not an integer or out of range")
				}
			}
			cmds = append(cmds, sinkCmd{op: op, key: argv[1], delta: delta})
		default:
			return resp.Errf("ERR SINKAPPEND unsupported subcommand '%s'", argv[0])
		}
	}
	if i != len(args) {
		return resp.Err("ERR SINKAPPEND malformed command block")
	}

	// Gate on the applied ledger, then apply the whole batch.
	e, herr := s.db.hashFor(ledgerKey, now)
	if herr != nil {
		return errValue(herr)
	}
	first, errv := ledgerRecord(e, ledgerField)
	if errv != nil {
		return *errv
	}
	if !first {
		return resp.Int(0)
	}
	for _, c := range cmds {
		switch c.op {
		case "XADD":
			se, _ := s.db.streamFor(c.key, true, now)
			st := se.stream
			st.add(st.nextAutoID(now), append([]string(nil), c.args...))
			s.notifyKey(c.key)
		default: // INCRBY
			if v := addToString(s, c.key, c.delta); v.Type == resp.Error {
				return v // unreachable after validation; defensive
			}
		}
	}
	return resp.Int(1)
}
