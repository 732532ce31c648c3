// Package miniredis implements an in-memory Redis server speaking RESP2 over
// TCP. It exists because the paper's dyn_redis / dyn_auto_redis /
// hybrid_redis mappings require a Redis 5+ server with Streams and consumer
// groups, and this reproduction must be self-contained (stdlib only).
//
// The server implements exactly the protocol the workflow engine speaks:
// three key types (strings, hashes, streams) and these commands:
//
//	connection  PING, QUIT
//	keys        DEL, KEYS, INFO
//	strings     GET, SET [NX|XX] [EX s|PX ms], INCRBY
//	hashes      HSET, HGET, HDEL, HGETALL, HKEYS, HLEN, HINCRBY
//	streams     XADD [MAXLEN n], XLEN, XTRIM MAXLEN,
//	            XGROUP CREATE [MKSTREAM], XREADGROUP, XACK, XPENDING,
//	            XCLAIM, XAUTOCLAIM, XINFO CONSUMERS
//	compounds   FENCEAPPLY, FENCEXACK, SINKAPPEND (see cmd_compound.go)
//
// Keys set with EX/PX expire lazily on access. Semantics follow the Redis
// documentation closely enough that generic RESP tooling can talk to the
// server; any other command is answered with "ERR unknown command", and
// options outside the engine's needs are rejected with clear errors rather
// than silently misbehaving.
package miniredis

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// keyKind enumerates the value types a key can hold.
type keyKind uint8

const (
	kindString keyKind = iota
	kindHash
	kindStream
)

// entry is one keyspace slot.
type entry struct {
	kind     keyKind
	str      string
	hash     map[string]string
	stream   *stream
	expireAt time.Time // zero means no TTL
}

func (e *entry) expired(now time.Time) bool {
	return !e.expireAt.IsZero() && now.After(e.expireAt)
}

// db is a single keyspace. The server owns exactly one.
type db struct {
	keys map[string]*entry
}

func newDB() *db { return &db{keys: make(map[string]*entry)} }

// lookup returns the live entry for key, applying lazy expiry.
func (d *db) lookup(key string, now time.Time) *entry {
	e, ok := d.keys[key]
	if !ok {
		return nil
	}
	if e.expired(now) {
		delete(d.keys, key)
		return nil
	}
	return e
}

// lookupKind fetches key and enforces its type, returning wrongType error
// text when it holds another kind.
func (d *db) lookupKind(key string, kind keyKind, now time.Time) (*entry, error) {
	e := d.lookup(key, now)
	if e == nil {
		return nil, nil
	}
	if e.kind != kind {
		return nil, errWrongType
	}
	return e, nil
}

var errWrongType = fmt.Errorf("WRONGTYPE Operation against a key holding the wrong kind of value")

// StreamID is a Redis stream entry ID (milliseconds-sequence pair).
type StreamID struct {
	Ms  uint64
	Seq uint64
}

// String renders the canonical "ms-seq" form.
func (id StreamID) String() string {
	return strconv.FormatUint(id.Ms, 10) + "-" + strconv.FormatUint(id.Seq, 10)
}

// Less reports strict ordering of stream IDs.
func (id StreamID) Less(o StreamID) bool {
	if id.Ms != o.Ms {
		return id.Ms < o.Ms
	}
	return id.Seq < o.Seq
}

// LessEq reports id <= o.
func (id StreamID) LessEq(o StreamID) bool { return !o.Less(id) }

// IsZero reports the zero ID ("0-0").
func (id StreamID) IsZero() bool { return id.Ms == 0 && id.Seq == 0 }

// Next returns the smallest ID strictly greater than id.
func (id StreamID) Next() StreamID {
	if id.Seq == ^uint64(0) {
		return StreamID{Ms: id.Ms + 1, Seq: 0}
	}
	return StreamID{Ms: id.Ms, Seq: id.Seq + 1}
}

// maxStreamID is the largest representable ID ("+" in range queries).
var maxStreamID = StreamID{Ms: ^uint64(0), Seq: ^uint64(0)}

// parseStreamID parses "ms", "ms-seq", "-", "+" forms. When seqDefault is
// what an absent sequence part should default to (0 for range starts, max
// for range ends).
func parseStreamID(s string, seqDefault uint64) (StreamID, error) {
	switch s {
	case "-":
		return StreamID{}, nil
	case "+":
		return maxStreamID, nil
	}
	ms := s
	seq := seqDefault
	if i := strings.IndexByte(s, '-'); i >= 0 {
		ms = s[:i]
		var err error
		seq, err = strconv.ParseUint(s[i+1:], 10, 64)
		if err != nil {
			return StreamID{}, fmt.Errorf("ERR Invalid stream ID specified as stream command argument")
		}
	}
	msv, err := strconv.ParseUint(ms, 10, 64)
	if err != nil {
		return StreamID{}, fmt.Errorf("ERR Invalid stream ID specified as stream command argument")
	}
	return StreamID{Ms: msv, Seq: seq}, nil
}

// streamEntry is one entry in a stream: its ID plus flat field-value pairs.
type streamEntry struct {
	id     StreamID
	fields []string // alternating field, value
}

// pendingEntry is one row of a consumer group's pending entries list (PEL).
type pendingEntry struct {
	consumer      string
	deliveryTime  time.Time
	deliveryCount int64
}

// consumer is one named consumer inside a group.
type consumer struct {
	name       string
	pending    map[StreamID]struct{}
	seenTime   time.Time // last command naming this consumer
	activeTime time.Time // last successful entry delivery (Redis 7 "inactive")
}

// group is a stream consumer group.
type group struct {
	lastDelivered StreamID
	pending       map[StreamID]*pendingEntry
	consumers     map[string]*consumer
}

func newGroup(last StreamID) *group {
	return &group{
		lastDelivered: last,
		pending:       make(map[StreamID]*pendingEntry),
		consumers:     make(map[string]*consumer),
	}
}

func (g *group) consumerNamed(name string, now time.Time) *consumer {
	c, ok := g.consumers[name]
	if !ok {
		c = &consumer{name: name, pending: make(map[StreamID]struct{}), seenTime: now, activeTime: now}
		g.consumers[name] = c
	}
	c.seenTime = now
	return c
}

// sortedPending returns the PEL IDs in ascending order, optionally filtered
// to one consumer.
func (g *group) sortedPending(onlyConsumer string) []StreamID {
	ids := make([]StreamID, 0, len(g.pending))
	for id, pe := range g.pending {
		if onlyConsumer != "" && pe.consumer != onlyConsumer {
			continue
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	return ids
}

// stream is the stream datatype: an append-only log plus consumer groups.
type stream struct {
	entries []streamEntry // ascending by id
	lastID  StreamID
	groups  map[string]*group
}

func newStream() *stream {
	return &stream{groups: make(map[string]*group)}
}

// add appends an entry. id must be strictly greater than lastID.
func (s *stream) add(id StreamID, fields []string) {
	s.entries = append(s.entries, streamEntry{id: id, fields: fields})
	s.lastID = id
}

// nextAutoID computes the ID "*"" would allocate at wall time now.
func (s *stream) nextAutoID(now time.Time) StreamID {
	ms := uint64(now.UnixMilli())
	if ms > s.lastID.Ms {
		return StreamID{Ms: ms, Seq: 0}
	}
	return StreamID{Ms: s.lastID.Ms, Seq: s.lastID.Seq + 1}
}

// searchIdx returns the index of the first entry with id >= want.
func (s *stream) searchIdx(want StreamID) int {
	return sort.Search(len(s.entries), func(i int) bool {
		return !s.entries[i].id.Less(want)
	})
}

// entryAt returns the entry with exactly id, or nil.
func (s *stream) entryAt(id StreamID) *streamEntry {
	i := s.searchIdx(id)
	if i < len(s.entries) && s.entries[i].id == id {
		return &s.entries[i]
	}
	return nil
}

// rangeEntries returns entries in [from, to] inclusive, up to count
// (count <= 0 means unlimited).
func (s *stream) rangeEntries(from, to StreamID, count int) []streamEntry {
	var out []streamEntry
	for i := s.searchIdx(from); i < len(s.entries); i++ {
		if to.Less(s.entries[i].id) {
			break
		}
		out = append(out, s.entries[i])
		if count > 0 && len(out) >= count {
			break
		}
	}
	return out
}

// trimMaxLen keeps only the newest max entries, returning evicted count.
func (s *stream) trimMaxLen(max int64) int64 {
	if int64(len(s.entries)) <= max {
		return 0
	}
	cut := int64(len(s.entries)) - max
	s.entries = append([]streamEntry(nil), s.entries[cut:]...)
	return cut
}
