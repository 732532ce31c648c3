package miniredis

import (
	"testing"
	"testing/quick"
	"time"
)

func TestStreamIDOrdering(t *testing.T) {
	a := StreamID{Ms: 1, Seq: 5}
	b := StreamID{Ms: 1, Seq: 6}
	c := StreamID{Ms: 2, Seq: 0}
	if !a.Less(b) || !b.Less(c) || c.Less(a) {
		t.Error("ordering broken")
	}
	if !a.LessEq(a) || !a.LessEq(b) || b.LessEq(a) {
		t.Error("LessEq broken")
	}
	if !(StreamID{}).IsZero() || a.IsZero() {
		t.Error("IsZero")
	}
}

func TestStreamIDNext(t *testing.T) {
	if got := (StreamID{Ms: 3, Seq: 7}).Next(); got != (StreamID{Ms: 3, Seq: 8}) {
		t.Errorf("Next: %v", got)
	}
	// Sequence overflow carries into the ms part.
	if got := (StreamID{Ms: 3, Seq: ^uint64(0)}).Next(); got != (StreamID{Ms: 4, Seq: 0}) {
		t.Errorf("Next overflow: %v", got)
	}
}

func TestParseStreamID(t *testing.T) {
	cases := []struct {
		in      string
		seqDef  uint64
		want    StreamID
		wantErr bool
	}{
		{"5-3", 0, StreamID{Ms: 5, Seq: 3}, false},
		{"5", 0, StreamID{Ms: 5, Seq: 0}, false},
		{"5", 9, StreamID{Ms: 5, Seq: 9}, false},
		{"-", 0, StreamID{}, false},
		{"+", 0, maxStreamID, false},
		{"x-1", 0, StreamID{}, true},
		{"1-x", 0, StreamID{}, true},
		{"", 0, StreamID{}, true},
	}
	for _, tc := range cases {
		got, err := parseStreamID(tc.in, tc.seqDef)
		if (err != nil) != tc.wantErr {
			t.Errorf("%q: err=%v", tc.in, err)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("%q: got %v want %v", tc.in, got, tc.want)
		}
	}
}

func TestQuickParseFormatRoundTrip(t *testing.T) {
	f := func(ms, seq uint64) bool {
		id := StreamID{Ms: ms, Seq: seq}
		got, err := parseStreamID(id.String(), 0)
		return err == nil && got == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStreamAddAndRange(t *testing.T) {
	s := newStream()
	for i := uint64(1); i <= 5; i++ {
		s.add(StreamID{Ms: i}, []string{"k", "v"})
	}
	if s.lastID != (StreamID{Ms: 5}) || len(s.entries) != 5 {
		t.Errorf("stream meta: %+v", s)
	}
	got := s.rangeEntries(StreamID{Ms: 2}, StreamID{Ms: 4}, 0)
	if len(got) != 3 || got[0].id.Ms != 2 || got[2].id.Ms != 4 {
		t.Errorf("range: %+v", got)
	}
	got = s.rangeEntries(StreamID{}, maxStreamID, 2)
	if len(got) != 2 {
		t.Errorf("count limit: %+v", got)
	}
	if e := s.entryAt(StreamID{Ms: 3}); e == nil || e.id.Ms != 3 {
		t.Error("entryAt hit")
	}
	if e := s.entryAt(StreamID{Ms: 99}); e != nil {
		t.Error("entryAt miss should be nil")
	}
}

func TestStreamDeleteAndTrim(t *testing.T) {
	s := newStream()
	for i := uint64(1); i <= 6; i++ {
		s.add(StreamID{Ms: i}, nil)
	}
	// Trimming deletes the oldest entries and keeps the ID sequence.
	evicted := s.trimMaxLen(2)
	if evicted != 4 || len(s.entries) != 2 {
		t.Errorf("trim: %d, %d entries", evicted, len(s.entries))
	}
	if s.entries[0].id.Ms != 5 {
		t.Errorf("trim kept wrong entries: %+v", s.entries)
	}
	if s.trimMaxLen(10) != 0 {
		t.Error("trim above length should evict nothing")
	}
	if id := s.nextAutoID(time.UnixMilli(0)); id != (StreamID{Ms: 6, Seq: 1}) {
		t.Errorf("auto ID after trim: %v", id)
	}
}

func TestNextAutoIDMonotonic(t *testing.T) {
	s := newStream()
	now := time.Now()
	id1 := s.nextAutoID(now)
	s.add(id1, nil)
	id2 := s.nextAutoID(now)
	if !id1.Less(id2) {
		t.Errorf("auto IDs not increasing: %v then %v", id1, id2)
	}
	// A stream with a future lastID keeps sequencing after it.
	s2 := newStream()
	s2.add(StreamID{Ms: ^uint64(0) - 1, Seq: 3}, nil)
	id3 := s2.nextAutoID(now)
	if !s2.lastID.Less(id3) {
		t.Errorf("auto ID after future lastID: %v", id3)
	}
}

func TestGroupPendingBookkeeping(t *testing.T) {
	g := newGroup(StreamID{})
	now := time.Now()
	c := g.consumerNamed("w1", now)
	id := StreamID{Ms: 1}
	g.pending[id] = &pendingEntry{consumer: "w1", deliveryTime: now, deliveryCount: 1}
	c.pending[id] = struct{}{}
	ids := g.sortedPending("")
	if len(ids) != 1 || ids[0] != id {
		t.Errorf("sortedPending: %v", ids)
	}
	if got := g.sortedPending("other"); len(got) != 0 {
		t.Errorf("consumer filter: %v", got)
	}
	// consumerNamed is idempotent and updates seenTime.
	c2 := g.consumerNamed("w1", now.Add(time.Second))
	if c2 != c {
		t.Error("consumerNamed created a duplicate")
	}
	if !c2.seenTime.After(now) {
		t.Error("seenTime not refreshed")
	}
}

func TestDBLazyExpiry(t *testing.T) {
	d := newDB()
	d.setString("k", "v")
	d.keys["k"].expireAt = time.Now().Add(-time.Second)
	if d.lookup("k", time.Now()) != nil {
		t.Error("expired key visible")
	}
	if _, ok := d.keys["k"]; ok {
		t.Error("expired key not removed on access")
	}
}

func TestLookupKindMismatch(t *testing.T) {
	d := newDB()
	d.setString("k", "v")
	if _, err := d.lookupKind("k", kindHash, time.Now()); err == nil {
		t.Error("wrong type must error")
	}
	e, err := d.lookupKind("missing", kindHash, time.Now())
	if e != nil || err != nil {
		t.Error("missing key should be nil, nil")
	}
}
