package replay

import (
	"sync"
	"testing"
	"time"

	"repro/internal/ndlog"
)

// cacheTestSession builds a session with one flow entry and packets at
// every tick in [1, n].
func cacheTestSession(t *testing.T, n int64, opts ...SessionOption) *Session {
	t.Helper()
	s := NewSession(fwdProg, opts...)
	if err := s.Insert("s1", ndlog.NewTuple("flowEntry", ndlog.Int(1),
		ndlog.MustParsePrefix("0.0.0.0/0"), ndlog.Str("s2")), 0); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	for i := int64(1); i <= n; i++ {
		if err := s.Insert("s1", ndlog.NewTuple("packet", ndlog.IP(uint32(i))), i); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return s
}

// TestPrefixBuildsOverlap is the regression test for acquire building
// prefixes while holding the cache mutex: two clones must be able to
// build prefixes for different anchors AT THE SAME TIME. The build hook
// blocks each build until the other arrives; if acquire still serialized
// builds under the lock, neither would see the other and both would time
// out.
func TestPrefixBuildsOverlap(t *testing.T) {
	// Delta replay forks the shared base run and never reaches the prefix
	// cache; the distinct per-change anchors this test needs require the
	// full-suffix path.
	s := cacheTestSession(t, 200, WithDeltaReplay(false))

	const timeout = 30 * time.Second
	var mu sync.Mutex
	arrived := 0
	both := make(chan struct{})
	overlapped := make(chan bool, 2)
	s.prefix.buildHook = func(anchor int64) {
		mu.Lock()
		arrived++
		if arrived == 2 {
			close(both)
		}
		mu.Unlock()
		select {
		case <-both:
			overlapped <- true
		case <-time.After(timeout):
			overlapped <- false
		}
	}

	var wg sync.WaitGroup
	for _, tick := range []int64{150, 40} {
		wg.Add(1)
		go func(tick int64) {
			defer wg.Done()
			clone := s.Clone()
			_, _, err := clone.ReplayWith([]Change{{
				Insert: true, Node: "s1",
				Tuple: ndlog.NewTuple("packet", ndlog.IP(0xffffff00)),
				Tick:  tick,
			}})
			if err != nil {
				t.Errorf("ReplayWith(%d): %v", tick, err)
			}
		}(tick)
	}
	wg.Wait()
	close(overlapped)
	for ok := range overlapped {
		if !ok {
			t.Fatalf("prefix builds did not overlap: a build timed out waiting for the other, so acquire is serializing builds")
		}
	}
}

// TestPrefixCachePublishDuplicate is the regression test for duplicate-
// tick publishes desyncing entries and order: republishing an existing
// tick must replace the entry in place, and evictions afterwards must
// never delete a live entry while its tick stays queued.
func TestPrefixCachePublishDuplicate(t *testing.T) {
	c := &prefixCache{entries: map[int64]*prefixEntry{}}
	check := func(when string) {
		t.Helper()
		if len(c.entries) != len(c.order) {
			t.Fatalf("%s: entries/order desynced: %d entries, %d order slots", when, len(c.entries), len(c.order))
		}
		seen := map[int64]bool{}
		for _, tick := range c.order {
			if seen[tick] {
				t.Fatalf("%s: tick %d queued twice in order", when, tick)
			}
			seen[tick] = true
			if _, ok := c.entries[tick]; !ok {
				t.Fatalf("%s: order references evicted tick %d", when, tick)
			}
		}
	}

	// Fill to capacity.
	for i := 0; i < maxPrefixEntries; i++ {
		c.publish(&prefixEntry{tick: int64(i)})
	}
	check("after fill")

	// Hammer one anchor with republishes at capacity.
	var last *prefixEntry
	for i := 0; i < 3*maxPrefixEntries; i++ {
		last = &prefixEntry{tick: 3}
		c.publish(last)
		check("after duplicate publish")
	}
	if c.entries[3] != last {
		t.Fatalf("duplicate publish did not replace the entry")
	}
	if len(c.entries) != maxPrefixEntries {
		t.Fatalf("capacity shrank to %d after duplicate publishes", len(c.entries))
	}

	// Push fresh ticks through a full round of evictions.
	for i := 0; i < 2*maxPrefixEntries; i++ {
		c.publish(&prefixEntry{tick: int64(100 + i)})
		check("after eviction")
		if len(c.entries) != maxPrefixEntries {
			t.Fatalf("cache holds %d entries, want %d", len(c.entries), maxPrefixEntries)
		}
	}
}

// TestPrefixCacheRepeatedAnchors drives the cache to capacity through
// the public path with anchors that repeat, then verifies every repeat
// is a hit and the cache never desyncs (the symptom of the publish bug
// was effective capacity shrinking until every acquire rebuilt).
func TestPrefixCacheRepeatedAnchors(t *testing.T) {
	// Delta replay never reaches the prefix cache: the per-change anchors
	// need the full-suffix path.
	s := cacheTestSession(t, 100, WithCheckpointEvery(10), WithDeltaReplay(false))
	anchors := []int64{15, 35, 55, 75, 95, 15, 35, 55, 75, 95, 15, 95}
	for i, a := range anchors {
		_, _, err := s.ReplayWith([]Change{{
			Insert: true, Node: "s1",
			Tuple: ndlog.NewTuple("packet", ndlog.IP(uint32(0xff000000)+uint32(i))),
			Tick:  a + prefixSlack,
		}})
		if err != nil {
			t.Fatalf("ReplayWith anchor %d: %v", a, err)
		}
	}
	c := s.prefix
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) < 5 {
		t.Fatalf("cache holds %d entries, want at least the 5 distinct anchors", len(c.entries))
	}
	if len(c.entries) != len(c.order) {
		t.Fatalf("entries/order desynced after repeated anchors: %d vs %d", len(c.entries), len(c.order))
	}
	for _, tick := range c.order {
		if _, ok := c.entries[tick]; !ok {
			t.Fatalf("order references missing tick %d", tick)
		}
	}
	// Second and later rounds of each anchor must all have hit.
	if s.Stats.PrefixHits < int64(len(anchors)-5-1) { // 5 distinct anchors + up to 1 checkpoint base per build
		t.Fatalf("PrefixHits = %d; repeats should hit the cache", s.Stats.PrefixHits)
	}
}

// TestLogEventsReturnsCopy is the regression test for Log.Events
// aliasing its internal slice: mutating or appending through the
// returned slice must never reach the log (aliased appends bypassed the
// prefix cache's log-length invalidation).
func TestLogEventsReturnsCopy(t *testing.T) {
	l := NewLog()
	l.Insert("n1", ndlog.NewTuple("packet", ndlog.IP(1)), 1)
	l.Insert("n1", ndlog.NewTuple("packet", ndlog.IP(2)), 2)

	evs := l.Events()
	evs[0].Tick = 999
	evs[0].Node = "evil"
	if got := l.At(0); got.Tick != 1 || got.Node != "n1" {
		t.Fatalf("mutating the returned slice reached the log: %+v", got)
	}
	_ = append(evs, Event{Kind: EvInsert, Node: "n2", Tick: 3})
	if l.Len() != 2 {
		t.Fatalf("appending through the returned slice changed the log length to %d", l.Len())
	}
	if got := l.Events(); len(got) != 2 || got[0].Tick != 1 {
		t.Fatalf("log corrupted after append through returned slice: %+v", got)
	}
}

// TestCountUpToIndex pins the binary-searched count index: the events a
// forked prefix skips must equal the number of log events at or before
// the anchor, including with duplicate and unsorted ticks.
func TestCountUpToIndex(t *testing.T) {
	// Per-change-tick anchors: delta replay forks the shared base run
	// instead.
	s := NewSession(fwdProg, WithDeltaReplay(false))
	if err := s.Insert("s1", ndlog.NewTuple("flowEntry", ndlog.Int(1),
		ndlog.MustParsePrefix("0.0.0.0/0"), ndlog.Str("s2")), 0); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	// Unsorted arrival with duplicates: ticks 7, 3, 7, 5, 9, 3.
	for i, tick := range []int64{7, 3, 7, 5, 9, 3} {
		if err := s.Insert("s1", ndlog.NewTuple("packet", ndlog.IP(uint32(i+1))), tick); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	cases := []struct {
		changeTick int64 // anchor is changeTick - prefixSlack
		want       int64 // events with tick <= anchor (incl. the tick-0 flow entry)
	}{
		{9, 6}, // anchor 8: all but the tick-9 event
		{8, 6}, // anchor 7: ticks 0,3,3,5,7,7
		{6, 4}, // anchor 5: ticks 0,3,3,5
		{4, 3}, // anchor 3: ticks 0,3,3
	}
	for _, tc := range cases {
		clone := s.Clone()
		_, _, err := clone.ReplayWith([]Change{{
			Insert: true, Node: "s1",
			Tuple: ndlog.NewTuple("packet", ndlog.IP(0xfefefefe)),
			Tick:  tc.changeTick,
		}})
		if err != nil {
			t.Fatalf("ReplayWith(%d): %v", tc.changeTick, err)
		}
		if clone.Stats.EventsSkipped != tc.want {
			t.Errorf("change at %d: EventsSkipped = %d, want %d",
				tc.changeTick, clone.Stats.EventsSkipped, tc.want)
		}
	}
}
