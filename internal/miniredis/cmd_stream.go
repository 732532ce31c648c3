package miniredis

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/resp"
)

func init() {
	register("XADD", 4, -1, cmdXAdd)
	register("XLEN", 1, 1, cmdXLen)
	register("XGROUP", 2, -1, cmdXGroup)
	register("XREADGROUP", 6, -1, cmdXReadGroup)
	register("XACK", 3, -1, cmdXAck)
	register("XPENDING", 2, -1, cmdXPending)
	register("XCLAIM", 5, -1, cmdXClaim)
	register("XAUTOCLAIM", 4, -1, cmdXAutoClaim)
	register("XTRIM", 3, 4, cmdXTrim)
	register("XINFO", 3, 3, cmdXInfo)
}

var errNoGroup = func(key, group string) resp.Value {
	return resp.Errf("NOGROUP No such consumer group '%s' for key name '%s'", group, key)
}

// entryValue renders one stream entry as [id, [f1, v1, ...]].
func entryValue(e streamEntry) resp.Value {
	return resp.Arr(resp.Str(e.id.String()), resp.StrArray(e.fields...))
}

// entriesValue renders a list of entries.
func entriesValue(entries []streamEntry) resp.Value {
	out := make([]resp.Value, len(entries))
	for i, e := range entries {
		out[i] = entryValue(e)
	}
	return resp.Arr(out...)
}

func (d *db) streamFor(key string, create bool, now time.Time) (*entry, error) {
	e, err := d.lookupKind(key, kindStream, now)
	if err != nil || e != nil {
		return e, err
	}
	if !create {
		return nil, nil
	}
	e = &entry{kind: kindStream, stream: newStream()}
	d.keys[key] = e
	return e, nil
}

func cmdXAdd(s *Server, args []string) resp.Value {
	key := args[0]
	i := 1
	maxLen := int64(-1)
	if strings.EqualFold(args[i], "MAXLEN") {
		i++
		if i < len(args) && (args[i] == "~" || args[i] == "=") {
			i++
		}
		if i >= len(args) {
			return resp.Err("ERR syntax error")
		}
		n, err := strconv.ParseInt(args[i], 10, 64)
		if err != nil || n < 0 {
			return resp.Err("ERR value is not an integer or out of range")
		}
		maxLen = n
		i++
	}
	if i >= len(args) {
		return resp.Err("ERR wrong number of arguments for 'xadd' command")
	}
	idArgStr := args[i]
	i++
	fields := args[i:]
	if len(fields) == 0 || len(fields)%2 != 0 {
		return resp.Err("ERR wrong number of arguments for 'xadd' command")
	}

	now := time.Now()
	e, err := s.db.streamFor(key, true, now)
	if err != nil {
		return errValue(err)
	}
	st := e.stream

	var id StreamID
	switch {
	case idArgStr == "*":
		id = st.nextAutoID(now)
	case strings.HasSuffix(idArgStr, "-*"):
		ms, perr := strconv.ParseUint(strings.TrimSuffix(idArgStr, "-*"), 10, 64)
		if perr != nil {
			return resp.Err("ERR Invalid stream ID specified as stream command argument")
		}
		if ms < st.lastID.Ms {
			return resp.Err("ERR The ID specified in XADD is equal or smaller than the target stream top item")
		}
		if ms == st.lastID.Ms {
			id = StreamID{Ms: ms, Seq: st.lastID.Seq + 1}
		} else {
			id = StreamID{Ms: ms, Seq: 0}
		}
	default:
		id, err = parseStreamID(idArgStr, 0)
		if err != nil {
			return errValue(err)
		}
		if !st.lastID.Less(id) {
			return resp.Err("ERR The ID specified in XADD is equal or smaller than the target stream top item")
		}
	}
	st.add(id, append([]string(nil), fields...))
	if maxLen >= 0 {
		st.trimMaxLen(maxLen)
	}
	s.notifyKey(key)
	return resp.Str(id.String())
}

func cmdXLen(s *Server, args []string) resp.Value {
	e, err := s.db.lookupKind(args[0], kindStream, time.Now())
	if err != nil {
		return errValue(err)
	}
	if e == nil {
		return resp.Int(0)
	}
	return resp.Int(int64(len(e.stream.entries)))
}

func parseRangeBounds(loStr, hiStr string) (StreamID, StreamID, error) {
	loExcl := strings.HasPrefix(loStr, "(")
	hiExcl := strings.HasPrefix(hiStr, "(")
	lo, err := parseStreamID(strings.TrimPrefix(loStr, "("), 0)
	if err != nil {
		return StreamID{}, StreamID{}, err
	}
	hi, err := parseStreamID(strings.TrimPrefix(hiStr, "("), ^uint64(0))
	if err != nil {
		return StreamID{}, StreamID{}, err
	}
	if loExcl {
		lo = lo.Next()
	}
	if hiExcl {
		if hi.IsZero() {
			return StreamID{}, StreamID{}, fmt.Errorf("ERR invalid range item")
		}
		if hi.Seq == 0 {
			hi = StreamID{Ms: hi.Ms - 1, Seq: ^uint64(0)}
		} else {
			hi = StreamID{Ms: hi.Ms, Seq: hi.Seq - 1}
		}
	}
	return lo, hi, nil
}

// parseStreamsClause parses the trailing "STREAMS key... id..." section.
func parseStreamsClause(args []string, i int) (keys, ids []string, err error) {
	if i >= len(args) || !strings.EqualFold(args[i], "STREAMS") {
		return nil, nil, fmt.Errorf("ERR syntax error")
	}
	rest := args[i+1:]
	if len(rest) == 0 || len(rest)%2 != 0 {
		return nil, nil, fmt.Errorf("ERR Unbalanced XREAD list of streams: for each stream key an ID or '$' must be specified")
	}
	half := len(rest) / 2
	return rest[:half], rest[half:], nil
}

func cmdXGroup(s *Server, args []string) resp.Value {
	if !strings.EqualFold(args[0], "CREATE") || len(args) < 4 {
		return resp.Errf("ERR Unknown XGROUP subcommand or wrong number of arguments for '%s'", args[0])
	}
	key, groupName, idStr := args[1], args[2], args[3]
	mkstream := len(args) >= 5 && strings.EqualFold(args[4], "MKSTREAM")
	e, err := s.db.streamFor(key, mkstream, time.Now())
	if err != nil {
		return errValue(err)
	}
	if e == nil {
		return resp.Err("ERR The XGROUP subcommand requires the key to exist. Note that for CREATE you may want to use the MKSTREAM option to create an empty stream automatically.")
	}
	st := e.stream
	if _, dup := st.groups[groupName]; dup {
		return resp.Err("BUSYGROUP Consumer Group name already exists")
	}
	last := st.lastID
	if idStr != "$" {
		if last, err = parseStreamID(idStr, 0); err != nil {
			return errValue(err)
		}
	}
	st.groups[groupName] = newGroup(last)
	return resp.OK
}

// lookupGroup finds a stream consumer group or returns the appropriate error
// reply.
func lookupGroup(s *Server, key, groupName string, now time.Time) (*group, *resp.Value) {
	e, err := s.db.lookupKind(key, kindStream, now)
	if err != nil {
		v := errValue(err)
		return nil, &v
	}
	if e == nil {
		v := errNoGroup(key, groupName)
		return nil, &v
	}
	g, ok := e.stream.groups[groupName]
	if !ok {
		v := errNoGroup(key, groupName)
		return nil, &v
	}
	return g, nil
}

func cmdXReadGroup(s *Server, args []string) resp.Value {
	if !strings.EqualFold(args[0], "GROUP") {
		return resp.Err("ERR syntax error")
	}
	groupName, consumerName := args[1], args[2]
	count := 0
	blockMs := int64(-1)
	i := 3
	for i < len(args) {
		switch strings.ToUpper(args[i]) {
		case "COUNT":
			if i+1 >= len(args) {
				return resp.Err("ERR syntax error")
			}
			n, err := strconv.Atoi(args[i+1])
			if err != nil {
				return resp.Err("ERR value is not an integer or out of range")
			}
			count = n
			i += 2
		case "BLOCK":
			if i+1 >= len(args) {
				return resp.Err("ERR syntax error")
			}
			n, err := strconv.ParseInt(args[i+1], 10, 64)
			if err != nil || n < 0 {
				return resp.Err("ERR timeout is not an integer or out of range")
			}
			blockMs = n
			i += 2
		default:
			goto streams
		}
	}
streams:
	keys, idStrs, err := parseStreamsClause(args, i)
	if err != nil {
		return errValue(err)
	}

	wantNew := make([]bool, len(keys))
	replayFrom := make([]StreamID, len(keys))
	for j, idStr := range idStrs {
		if idStr == ">" {
			wantNew[j] = true
			continue
		}
		replayFrom[j], err = parseStreamID(idStr, 0)
		if err != nil {
			return errValue(err)
		}
	}

	var deadline time.Time
	if blockMs > 0 {
		deadline = time.Now().Add(time.Duration(blockMs) * time.Millisecond)
	}
	for {
		now := time.Now()
		var out []resp.Value
		anyNewRequested := false
		for j, key := range keys {
			g, errv := lookupGroup(s, key, groupName, now)
			if errv != nil {
				return *errv
			}
			e, _ := s.db.lookupKind(key, kindStream, now)
			st := e.stream
			c := g.consumerNamed(consumerName, now)
			if !wantNew[j] {
				// Replay this consumer's PEL from the given ID.
				var entries []streamEntry
				for _, id := range g.sortedPending(consumerName) {
					if id.Less(replayFrom[j].Next()) {
						continue
					}
					if se := st.entryAt(id); se != nil {
						entries = append(entries, *se)
					} else {
						entries = append(entries, streamEntry{id: id})
					}
					if count > 0 && len(entries) >= count {
						break
					}
				}
				out = append(out, resp.Arr(resp.Str(key), entriesValue(entries)))
				continue
			}
			anyNewRequested = true
			entries := st.rangeEntries(g.lastDelivered.Next(), maxStreamID, count)
			if len(entries) == 0 {
				continue
			}
			c.activeTime = now
			for _, se := range entries {
				g.lastDelivered = se.id
				g.pending[se.id] = &pendingEntry{
					consumer:      consumerName,
					deliveryTime:  now,
					deliveryCount: 1,
				}
				c.pending[se.id] = struct{}{}
			}
			out = append(out, resp.Arr(resp.Str(key), entriesValue(entries)))
		}
		if len(out) > 0 || !anyNewRequested {
			if len(out) == 0 {
				return resp.NilArray()
			}
			return resp.Arr(out...)
		}
		if blockMs < 0 {
			return resp.NilArray()
		}
		if !s.awaitKeys(keys, deadline) {
			return resp.NilArray()
		}
	}
}

func cmdXAck(s *Server, args []string) resp.Value {
	now := time.Now()
	g, errv := lookupGroup(s, args[0], args[1], now)
	if errv != nil {
		// Redis returns 0 for missing key/group on XACK.
		if strings.HasPrefix(errv.Str, "NOGROUP") {
			return resp.Int(0)
		}
		return *errv
	}
	var n int64
	for _, idStr := range args[2:] {
		id, err := parseStreamID(idStr, 0)
		if err != nil {
			return errValue(err)
		}
		pe, ok := g.pending[id]
		if !ok {
			continue
		}
		delete(g.pending, id)
		if c, ok := g.consumers[pe.consumer]; ok {
			delete(c.pending, id)
		}
		n++
	}
	return resp.Int(n)
}

func cmdXPending(s *Server, args []string) resp.Value {
	now := time.Now()
	g, errv := lookupGroup(s, args[0], args[1], now)
	if errv != nil {
		return *errv
	}
	if len(args) == 2 {
		// Summary form: [count, min-id, max-id, [[consumer, count]...]].
		if len(g.pending) == 0 {
			return resp.Arr(resp.Int(0), resp.Nil, resp.Nil, resp.NilArray())
		}
		ids := g.sortedPending("")
		perConsumer := map[string]int64{}
		for _, pe := range g.pending {
			perConsumer[pe.consumer]++
		}
		names := make([]string, 0, len(perConsumer))
		for name := range perConsumer {
			names = append(names, name)
		}
		sort.Strings(names)
		consumers := make([]resp.Value, len(names))
		for i, name := range names {
			consumers[i] = resp.Arr(resp.Str(name), resp.Str(strconv.FormatInt(perConsumer[name], 10)))
		}
		return resp.Arr(
			resp.Int(int64(len(g.pending))),
			resp.Str(ids[0].String()),
			resp.Str(ids[len(ids)-1].String()),
			resp.Arr(consumers...),
		)
	}

	// Extended form: [IDLE ms] start end count [consumer].
	i := 2
	var minIdle time.Duration
	if strings.EqualFold(args[i], "IDLE") {
		if i+1 >= len(args) {
			return resp.Err("ERR syntax error")
		}
		ms, err := strconv.ParseInt(args[i+1], 10, 64)
		if err != nil {
			return resp.Err("ERR value is not an integer or out of range")
		}
		minIdle = time.Duration(ms) * time.Millisecond
		i += 2
	}
	if len(args)-i < 3 {
		return resp.Err("ERR syntax error")
	}
	lo, hi, err := parseRangeBounds(args[i], args[i+1])
	if err != nil {
		return errValue(err)
	}
	count, cerr := strconv.Atoi(args[i+2])
	if cerr != nil || count < 0 {
		return resp.Err("ERR value is not an integer or out of range")
	}
	onlyConsumer := ""
	if len(args)-i == 4 {
		onlyConsumer = args[i+3]
	}
	var rows []resp.Value
	for _, id := range g.sortedPending(onlyConsumer) {
		if id.Less(lo) || hi.Less(id) {
			continue
		}
		pe := g.pending[id]
		idle := now.Sub(pe.deliveryTime)
		if idle < minIdle {
			continue
		}
		rows = append(rows, resp.Arr(
			resp.Str(id.String()),
			resp.Str(pe.consumer),
			resp.Int(int64(idle/time.Millisecond)),
			resp.Int(pe.deliveryCount),
		))
		if len(rows) >= count {
			break
		}
	}
	return resp.Arr(rows...)
}

func cmdXClaim(s *Server, args []string) resp.Value {
	now := time.Now()
	key, groupName, consumerName := args[0], args[1], args[2]
	minIdleMs, err := strconv.ParseInt(args[3], 10, 64)
	if err != nil {
		return resp.Err("ERR Invalid min-idle-time argument for XCLAIM")
	}
	g, errv := lookupGroup(s, key, groupName, now)
	if errv != nil {
		return *errv
	}
	e, _ := s.db.lookupKind(key, kindStream, now)
	justID := false
	var ids []StreamID
	for _, a := range args[4:] {
		if strings.EqualFold(a, "JUSTID") {
			justID = true
			continue
		}
		id, perr := parseStreamID(a, 0)
		if perr != nil {
			return errValue(perr)
		}
		ids = append(ids, id)
	}
	dst := g.consumerNamed(consumerName, now)
	minIdle := time.Duration(minIdleMs) * time.Millisecond
	var out []resp.Value
	for _, id := range ids {
		pe, ok := g.pending[id]
		if !ok {
			continue
		}
		if now.Sub(pe.deliveryTime) < minIdle {
			continue
		}
		if prev, ok := g.consumers[pe.consumer]; ok {
			delete(prev.pending, id)
		}
		pe.consumer = consumerName
		pe.deliveryTime = now
		if !justID {
			pe.deliveryCount++
		}
		dst.pending[id] = struct{}{}
		se := e.stream.entryAt(id)
		if justID {
			out = append(out, resp.Str(id.String()))
		} else if se != nil {
			out = append(out, entryValue(*se))
		}
	}
	if len(out) > 0 {
		dst.activeTime = now
	}
	return resp.Arr(out...)
}

func cmdXAutoClaim(s *Server, args []string) resp.Value {
	now := time.Now()
	key, groupName, consumerName := args[0], args[1], args[2]
	minIdleMs, err := strconv.ParseInt(args[3], 10, 64)
	if err != nil {
		return resp.Err("ERR Invalid min-idle-time argument for XAUTOCLAIM")
	}
	start := StreamID{}
	if len(args) >= 5 {
		start, err = parseStreamID(args[4], 0)
		if err != nil {
			return errValue(err)
		}
	}
	count := 100
	justID := false
	for i := 5; i < len(args); i++ {
		switch strings.ToUpper(args[i]) {
		case "COUNT":
			if i+1 >= len(args) {
				return resp.Err("ERR syntax error")
			}
			count, err = strconv.Atoi(args[i+1])
			if err != nil || count <= 0 {
				return resp.Err("ERR value is not an integer or out of range")
			}
			i++
		case "JUSTID":
			justID = true
		default:
			return resp.Err("ERR syntax error")
		}
	}
	g, errv := lookupGroup(s, key, groupName, now)
	if errv != nil {
		return *errv
	}
	e, _ := s.db.lookupKind(key, kindStream, now)
	dst := g.consumerNamed(consumerName, now)
	minIdle := time.Duration(minIdleMs) * time.Millisecond

	var claimed []resp.Value
	var deletedIDs []resp.Value
	cursor := "0-0"
	ids := g.sortedPending("")
	for _, id := range ids {
		if id.Less(start) {
			continue
		}
		if len(claimed) >= count {
			cursor = id.String()
			break
		}
		pe := g.pending[id]
		if now.Sub(pe.deliveryTime) < minIdle {
			continue
		}
		se := e.stream.entryAt(id)
		if se == nil {
			// Entry deleted from the stream: drop from PEL, report in third
			// reply element (Redis 7 behaviour).
			if prev, ok := g.consumers[pe.consumer]; ok {
				delete(prev.pending, id)
			}
			delete(g.pending, id)
			deletedIDs = append(deletedIDs, resp.Str(id.String()))
			continue
		}
		if prev, ok := g.consumers[pe.consumer]; ok {
			delete(prev.pending, id)
		}
		pe.consumer = consumerName
		pe.deliveryTime = now
		if !justID {
			pe.deliveryCount++
		}
		dst.pending[id] = struct{}{}
		if justID {
			claimed = append(claimed, resp.Str(id.String()))
		} else {
			claimed = append(claimed, entryValue(*se))
		}
	}
	if len(claimed) > 0 {
		dst.activeTime = now
	}
	return resp.Arr(resp.Str(cursor), resp.Arr(claimed...), resp.Arr(deletedIDs...))
}

func cmdXTrim(s *Server, args []string) resp.Value {
	e, err := s.db.lookupKind(args[0], kindStream, time.Now())
	if err != nil {
		return errValue(err)
	}
	i := 1
	if !strings.EqualFold(args[i], "MAXLEN") {
		return resp.Err("ERR syntax error")
	}
	i++
	if i < len(args) && (args[i] == "~" || args[i] == "=") {
		i++
	}
	if i >= len(args) {
		return resp.Err("ERR syntax error")
	}
	n, cerr := strconv.ParseInt(args[i], 10, 64)
	if cerr != nil || n < 0 {
		return resp.Err("ERR value is not an integer or out of range")
	}
	if e == nil {
		return resp.Int(0)
	}
	return resp.Int(e.stream.trimMaxLen(n))
}

func cmdXInfo(s *Server, args []string) resp.Value {
	if !strings.EqualFold(args[0], "CONSUMERS") {
		return resp.Errf("ERR Unknown XINFO subcommand or wrong number of arguments for '%s'", args[0])
	}
	now := time.Now()
	g, errv := lookupGroup(s, args[1], args[2], now)
	if errv != nil {
		return *errv
	}
	names := make([]string, 0, len(g.consumers))
	for name := range g.consumers {
		names = append(names, name)
	}
	sort.Strings(names)
	rows := make([]resp.Value, len(names))
	for i, name := range names {
		c := g.consumers[name]
		rows[i] = resp.Arr(
			resp.Str("name"), resp.Str(name),
			resp.Str("pending"), resp.Int(int64(len(c.pending))),
			resp.Str("idle"), resp.Int(int64(now.Sub(c.seenTime)/time.Millisecond)),
			resp.Str("inactive"), resp.Int(int64(now.Sub(c.activeTime)/time.Millisecond)),
		)
	}
	return resp.Arr(rows...)
}
