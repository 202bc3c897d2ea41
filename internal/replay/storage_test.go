package replay

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/store"
)

// driveForwarding drives the same deterministic forwarding workload into
// any session: one flow entry, then n packets at ticks 1..n, with the
// flow entry swapped halfway.
func driveForwarding(t *testing.T, s *Session, n int64) {
	t.Helper()
	insert := func(node string, tu ndlog.Tuple, tick int64) {
		t.Helper()
		if err := s.Insert(node, tu, tick); err != nil {
			t.Fatalf("Insert at %d: %v", tick, err)
		}
	}
	insert("s1", ndlog.NewTuple("flowEntry", ndlog.Int(1),
		ndlog.MustParsePrefix("0.0.0.0/0"), ndlog.Str("s2")), 0)
	for i := int64(1); i <= n; i++ {
		insert("s1", ndlog.NewTuple("packet", ndlog.IP(uint32(i))), i)
		if i == n/2 {
			if err := s.Delete("s1", ndlog.NewTuple("flowEntry", ndlog.Int(1),
				ndlog.MustParsePrefix("0.0.0.0/0"), ndlog.Str("s2")), i); err != nil {
				t.Fatalf("Delete at %d: %v", i, err)
			}
			insert("s1", ndlog.NewTuple("flowEntry", ndlog.Int(2),
				ndlog.MustParsePrefix("0.0.0.0/0"), ndlog.Str("s3")), i)
		}
		// Periodic Run calls, like a live driver.
		if i%7 == 0 {
			if err := s.Run(); err != nil {
				t.Fatalf("Run at %d: %v", i, err)
			}
		}
	}
	if err := s.Run(); err != nil {
		t.Fatalf("final Run: %v", err)
	}
}

// treeFingerprint replays the session and fingerprints the provenance
// tree of the last packet appearance — a full query-path probe.
func treeFingerprint(t *testing.T, s *Session, n int64) uint64 {
	t.Helper()
	_, g, err := s.Replay()
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	v := g.LastAppear("s3", ndlog.NewTuple("packet", ndlog.IP(uint32(n))))
	if v == nil {
		t.Fatalf("no appearance for the last forwarded packet")
	}
	return g.Tree(v.ID).Fingerprint()
}

// TestStorageDifferential: a storage-backed session must be
// indistinguishable from the in-memory path — same log, same
// checkpoints, same provenance — and remain so after a cold start from
// its segments.
func TestStorageDifferential(t *testing.T) {
	// Both fork modes: storage must be invisible to replay results whether
	// the prefix cache hands out copy-on-write or deep forks.
	for _, cow := range []bool{true, false} {
		t.Run(map[bool]string{true: "cow", false: "deep"}[cow], func(t *testing.T) {
			const n = 40
			mem := NewSession(fwdProg, WithCheckpointEvery(10), WithCopyOnWriteForks(cow))
			driveForwarding(t, mem, n)

			dir := t.TempDir()
			st := NewSession(fwdProg, WithCheckpointEvery(10), WithCopyOnWriteForks(cow),
				WithStorage(dir, store.WithSegmentEvents(8)))
			driveForwarding(t, st, n)

			if !reflect.DeepEqual(mem.Log().Events(), st.Log().Events()) {
				t.Fatalf("storage-backed log differs from in-memory log")
			}
			if !reflect.DeepEqual(mem.Checkpoints(), st.Checkpoints()) {
				t.Fatalf("storage-backed checkpoints differ from in-memory checkpoints")
			}
			wantFP := treeFingerprint(t, mem, n)
			if fp := treeFingerprint(t, st, n); fp != wantFP {
				t.Fatalf("storage-backed provenance fingerprint %x != in-memory %x", fp, wantFP)
			}
			if err := st.CloseStorage(); err != nil {
				t.Fatalf("CloseStorage: %v", err)
			}

			// Cold start out of the segments: same session again.
			cold, err := Open(fwdProg, dir, WithCheckpointEvery(10), WithCopyOnWriteForks(cow))
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer cold.CloseStorage()
			if !reflect.DeepEqual(mem.Log().Events(), cold.Log().Events()) {
				t.Fatalf("cold-start log differs")
			}
			if !reflect.DeepEqual(mem.Checkpoints(), cold.Checkpoints()) {
				t.Fatalf("cold-start checkpoints differ")
			}
			if fp := treeFingerprint(t, cold, n); fp != wantFP {
				t.Fatalf("cold-start provenance fingerprint differs")
			}
		})
	}
}

// TestStorageRedriveRecovery: restarting a storage-backed session and
// re-driving the same execution must verify against the stored prefix
// (appending nothing), then keep persisting past it.
func TestStorageRedriveRecovery(t *testing.T) {
	const n = 30
	dir := t.TempDir()
	first := NewSession(fwdProg, WithCheckpointEvery(10), WithStorage(dir, store.WithSegmentEvents(8)))
	driveForwarding(t, first, n)
	storedLen := first.Storage().Len()
	if err := first.CloseStorage(); err != nil {
		t.Fatalf("CloseStorage: %v", err)
	}

	// "Restart": fresh session over the same dir, deterministic driver
	// re-drives the identical execution.
	second := NewSession(fwdProg, WithCheckpointEvery(10), WithStorage(dir, store.WithSegmentEvents(8)))
	driveForwarding(t, second, n)
	if got := second.Storage().Len(); got != storedLen {
		t.Fatalf("re-drive appended: store holds %d events, want %d", got, storedLen)
	}

	mem := NewSession(fwdProg, WithCheckpointEvery(10))
	driveForwarding(t, mem, n)
	if !reflect.DeepEqual(mem.Checkpoints(), second.Checkpoints()) {
		t.Fatalf("recovered checkpoints differ from in-memory reference")
	}
	if treeFingerprint(t, mem, n) != treeFingerprint(t, second, n) {
		t.Fatalf("recovered provenance differs from in-memory reference")
	}

	// New events past the recovered execution persist.
	if err := second.Insert("s1", ndlog.NewTuple("packet", ndlog.IP(0xffff0001)), n+5); err != nil {
		t.Fatalf("Insert past recovery: %v", err)
	}
	if err := second.Run(); err != nil {
		t.Fatalf("Run past recovery: %v", err)
	}
	if got := second.Storage().Len(); got != storedLen+1 {
		t.Fatalf("post-recovery append not persisted: %d events, want %d", got, storedLen+1)
	}
	second.CloseStorage()
}

// TestStorageRedriveDivergence: a driver that does not reproduce the
// stored execution must fail loudly, not fork history.
func TestStorageRedriveDivergence(t *testing.T) {
	dir := t.TempDir()
	first := NewSession(fwdProg, WithStorage(dir))
	if err := first.Insert("s1", ndlog.NewTuple("packet", ndlog.IP(1)), 1); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := first.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := first.CloseStorage(); err != nil {
		t.Fatalf("CloseStorage: %v", err)
	}

	second := NewSession(fwdProg, WithStorage(dir))
	err := second.Insert("s1", ndlog.NewTuple("packet", ndlog.IP(2)), 1) // different tuple
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("divergent re-drive not rejected: %v", err)
	}
	second.CloseStorage()
}

// TestStorageKillAndRestart: a crash that loses the unflushed tail (and
// leaves a torn record) recovers to the durable prefix; re-driving the
// full execution then re-appends the lost events and converges to the
// in-memory reference.
func TestStorageKillAndRestart(t *testing.T) {
	const n = 30
	dir := t.TempDir()
	first := NewSession(fwdProg, WithCheckpointEvery(10), WithStorage(dir, store.WithSegmentEvents(8)))
	driveForwarding(t, first, n)
	// Crash: no Close, no final Sync — anything the store buffered is
	// lost. Then tear the active segment's tail with a partial record.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments written: %v", err)
	}
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open segment: %v", err)
	}
	if _, err := f.Write([]byte{0x0c, 0x01, 0x02}); err != nil {
		t.Fatalf("write torn record: %v", err)
	}
	f.Close()

	second := NewSession(fwdProg, WithCheckpointEvery(10), WithStorage(dir, store.WithSegmentEvents(8)))
	recovered := second.Log().Len()
	if recovered == 0 || recovered > second.Storage().Len()+1 {
		t.Fatalf("recovered %d events from torn store", recovered)
	}
	driveForwarding(t, second, n)

	mem := NewSession(fwdProg, WithCheckpointEvery(10))
	driveForwarding(t, mem, n)
	if !reflect.DeepEqual(mem.Log().Events(), second.Log().Events()) {
		t.Fatalf("post-crash re-drive log differs from reference")
	}
	if !reflect.DeepEqual(mem.Checkpoints(), second.Checkpoints()) {
		t.Fatalf("post-crash re-drive checkpoints differ from reference")
	}
	if treeFingerprint(t, mem, n) != treeFingerprint(t, second, n) {
		t.Fatalf("post-crash provenance differs from reference")
	}
	if err := second.SyncStorage(); err != nil {
		t.Fatalf("SyncStorage: %v", err)
	}
	if got, want := second.Storage().Len(), second.Log().Len(); got != want {
		t.Fatalf("store holds %d events after recovery, log has %d", got, want)
	}
	second.CloseStorage()
}

// TestStorageGCColdStartMatchesAgeOut: GC truncates whole old segments;
// a cold start from the truncated store must equal an in-memory session
// over the retained suffix of the log (the segment-granular version of
// Log.AgeOut).
func TestStorageGCColdStartMatchesAgeOut(t *testing.T) {
	const n = 40
	dir := t.TempDir()
	s := NewSession(fwdProg, WithCheckpointEvery(10), WithStorage(dir, store.WithSegmentEvents(8)))
	driveForwarding(t, s, n)
	full := s.Log().Events()

	removed, err := s.GCStorage(20)
	if err != nil {
		t.Fatalf("GCStorage: %v", err)
	}
	if removed == 0 {
		t.Fatalf("GC reclaimed nothing")
	}
	// GC reclaims whole segments from the front of the stream, so the
	// retained log is exactly the suffix past the reclaimed segments.
	dropped := removed * 8
	if err := s.CloseStorage(); err != nil {
		t.Fatalf("CloseStorage: %v", err)
	}

	cold, err := Open(fwdProg, dir, WithCheckpointEvery(10))
	if err != nil {
		t.Fatalf("Open after GC: %v", err)
	}
	defer cold.CloseStorage()
	if !reflect.DeepEqual(cold.Log().Events(), full[dropped:]) {
		t.Fatalf("cold start after GC: got %d events, want the %d-event suffix", cold.Log().Len(), len(full)-dropped)
	}

	// And it must match a from-scratch session driven with the same
	// suffix (what AgeOut would leave for tick-sorted logs).
	ref := NewSession(fwdProg, WithCheckpointEvery(10))
	for _, ev := range full[dropped:] {
		var err error
		if ev.Kind == EvInsert {
			err = ref.Insert(ev.Node, ev.Tuple, ev.Tick)
		} else {
			err = ref.Delete(ev.Node, ev.Tuple, ev.Tick)
		}
		if err != nil {
			t.Fatalf("driving reference: %v", err)
		}
	}
	if err := ref.Run(); err != nil {
		t.Fatalf("reference Run: %v", err)
	}
	if !reflect.DeepEqual(ref.Checkpoints(), cold.Checkpoints()) {
		t.Fatalf("cold start after GC: checkpoints differ from aged-out reference")
	}
}

// TestStorageGCPinnedDiagnosis: a pin at a replayed-from tick blocks GC
// from reclaiming the segments a live diagnosis needs; release unblocks.
func TestStorageGCPinnedDiagnosis(t *testing.T) {
	const n = 40
	dir := t.TempDir()
	s := NewSession(fwdProg, WithStorage(dir, store.WithSegmentEvents(8)))
	driveForwarding(t, s, n)

	release := s.PinStorage(0) // diagnosis replaying from the beginning
	removed, err := s.GCStorage(30)
	if err != nil {
		t.Fatalf("GCStorage: %v", err)
	}
	if removed != 0 {
		t.Fatalf("GC reclaimed %d segments under a pin at tick 0", removed)
	}
	// The pinned diagnosis still sees the full history (flow entry, n
	// packets, and the mid-run delete+insert swap).
	if got := s.Log().Len(); got != n+3 {
		t.Fatalf("log shrank under GC: %d events", got)
	}
	release()
	removed, err = s.GCStorage(30)
	if err != nil {
		t.Fatalf("GCStorage after release: %v", err)
	}
	if removed == 0 {
		t.Fatalf("GC reclaimed nothing after the pin was released")
	}
	s.CloseStorage()
}

// TestOpenEmptyDir: cold-starting an empty directory yields an empty,
// usable, persisting session.
func TestOpenEmptyDir(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(fwdProg, dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if s.Log().Len() != 0 {
		t.Fatalf("fresh dir yielded %d events", s.Log().Len())
	}
	if err := s.Insert("s1", ndlog.NewTuple("packet", ndlog.IP(7)), 1); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := s.CloseStorage(); err != nil {
		t.Fatalf("CloseStorage: %v", err)
	}
	re, err := Open(fwdProg, dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.CloseStorage()
	if re.Log().Len() != 1 {
		t.Fatalf("persisted %d events, want 1", re.Log().Len())
	}
}

// TestColdStartReplay1M is the acceptance-scale test: a million-event
// synthetic log must persist into segments and replay from a cold start
// out of them. Skipped in -short mode and under the race detector; the
// CI "cold-start replay" step runs it plainly.
func TestColdStartReplay1M(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-event cold start skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("1M-event cold start skipped under the race detector")
	}
	const n = 1_000_000
	dir := t.TempDir()
	s := NewSession(fwdProg, WithCheckpointEvery(100_000), WithStorage(dir))
	if err := s.Insert("s1", ndlog.NewTuple("flowEntry", ndlog.Int(1),
		ndlog.MustParsePrefix("0.0.0.0/0"), ndlog.Str("s2")), 0); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	for i := int64(1); i <= n; i++ {
		if err := s.Insert("s1", ndlog.NewTuple("packet", ndlog.IP(uint32(i))), i); err != nil {
			t.Fatalf("Insert(%d): %v", i, err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantCkpts := s.Checkpoints()
	if len(wantCkpts) == 0 {
		t.Fatalf("no checkpoints captured")
	}
	if err := s.CloseStorage(); err != nil {
		t.Fatalf("CloseStorage: %v", err)
	}

	cold, err := Open(fwdProg, dir, WithCheckpointEvery(100_000))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer cold.CloseStorage()
	if cold.Log().Len() != n+1 {
		t.Fatalf("cold start recovered %d events, want %d", cold.Log().Len(), n+1)
	}
	got := cold.Checkpoints()
	if len(got) != len(wantCkpts) {
		t.Fatalf("cold start has %d checkpoints, want %d", len(got), len(wantCkpts))
	}
	for i := range got {
		if got[i].Tick != wantCkpts[i].Tick {
			t.Fatalf("checkpoint %d at tick %d, want %d", i, got[i].Tick, wantCkpts[i].Tick)
		}
	}
	// Spot-check recovered live state: the last packet was forwarded.
	if !cold.Live().Exists("s2", ndlog.NewTuple("packet", ndlog.IP(uint32(n))), cold.Live().Now()) {
		t.Fatalf("recovered live state is missing the last forwarded packet")
	}
}

// TestWarmStartPrefix: Open with WithWarmStart must build, during
// recovery, the engine the first counterfactual replay forks — the shared
// base run under delta replay, the checkpoint-anchored prefix under the
// full-suffix arm — so that replay is a hit instead of paying for the
// build, and its result must be byte-identical to a cold session's.
// Without incremental replay nothing forks, so nothing is built.
func TestWarmStartPrefix(t *testing.T) {
	const n = 40
	dir := t.TempDir()
	s := NewSession(fwdProg, WithCheckpointEvery(10), WithStorage(dir, store.WithSegmentEvents(8)))
	driveForwarding(t, s, n)
	if err := s.CloseStorage(); err != nil {
		t.Fatalf("CloseStorage: %v", err)
	}

	for _, delta := range []bool{true, false} {
		t.Run(fmt.Sprintf("delta=%v", delta), func(t *testing.T) {
			warm, err := Open(fwdProg, dir, WithCheckpointEvery(10), WithWarmStart(true), WithDeltaReplay(delta))
			if err != nil {
				t.Fatalf("warm Open: %v", err)
			}
			defer warm.CloseStorage()
			cold, err := Open(fwdProg, dir, WithCheckpointEvery(10), WithDeltaReplay(delta))
			if err != nil {
				t.Fatalf("cold Open: %v", err)
			}
			defer cold.CloseStorage()

			// The change lands just after the last durable checkpoint, so
			// the full-suffix replay anchors exactly on the prefix the warm
			// start rebuilt; a delta replay forks the base run.
			change := []Change{{Insert: true, Node: "s1",
				Tuple: ndlog.NewTuple("packet", ndlog.IP(9999)), Tick: n + 1}}
			we, wg, err := warm.ReplayWith(change)
			if err != nil {
				t.Fatalf("warm ReplayWith: %v", err)
			}
			if warm.Stats.PrefixHits != 1 || warm.Stats.PrefixMisses != 0 {
				t.Errorf("warm start: first replay hit/miss = %d/%d, want 1/0",
					warm.Stats.PrefixHits, warm.Stats.PrefixMisses)
			}
			ce, cg, err := cold.ReplayWith(change)
			if err != nil {
				t.Fatalf("cold ReplayWith: %v", err)
			}
			if cold.Stats.PrefixMisses != 1 {
				t.Errorf("cold start: first replay misses = %d, want 1", cold.Stats.PrefixMisses)
			}
			if got, want := serializeForTest(wg, we.CaptureState()), serializeForTest(cg, ce.CaptureState()); got != want {
				t.Errorf("warm-start replay differs from cold replay:\nwarm:\n%.2000s\ncold:\n%.2000s", got, want)
			}
		})
	}

	t.Run("incremental=false", func(t *testing.T) {
		warm, err := Open(fwdProg, dir, WithCheckpointEvery(10), WithWarmStart(true), WithIncrementalReplay(false))
		if err != nil {
			t.Fatalf("warm Open: %v", err)
		}
		defer warm.CloseStorage()
		if warm.base.cur != nil || len(warm.prefix.entries) != 0 {
			t.Errorf("warm start without incremental replay built an anchor no trial forks")
		}
	})
}

// serializeForTest renders a graph and snapshot deterministically for
// byte-identity comparisons inside the package.
func serializeForTest(g *provenance.Graph, snap ndlog.Snapshot) string {
	var sb strings.Builder
	g.Vertexes(func(v *provenance.Vertex) {
		fmt.Fprintf(&sb, "%d %s trig=%d kids=%v\n", v.ID, v.String(), v.Trigger, v.Children)
	})
	nodes := make([]string, 0, len(snap.State))
	for n := range snap.State {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	fmt.Fprintf(&sb, "tick=%d\n", snap.Tick)
	for _, n := range nodes {
		tables := make([]string, 0, len(snap.State[n]))
		for tn := range snap.State[n] {
			tables = append(tables, tn)
		}
		sort.Strings(tables)
		for _, tn := range tables {
			for _, tp := range snap.State[n][tn] {
				fmt.Fprintf(&sb, "%s %s\n", n, tp)
			}
		}
	}
	return sb.String()
}

// TestWarmStartRejectsBadCheckpoint: a warm start verifies the recovered
// execution against the last durable checkpoint before building anything, so a checkpoint that does not describe the stored stream fails
// Open; a cold start does not verify and opens.
func TestWarmStartRejectsBadCheckpoint(t *testing.T) {
	const n = 40
	dir := t.TempDir()
	s := NewSession(fwdProg, WithCheckpointEvery(10), WithStorage(dir))
	driveForwarding(t, s, n)
	last := s.Checkpoints()[len(s.Checkpoints())-1]
	// Overwrite the last checkpoint with an empty state.
	bogus := ndlog.Snapshot{Tick: last.Tick, State: map[string]map[string][]ndlog.Tuple{}}
	if err := s.Storage().PutCheckpoint(last.Tick, s.Log().Len(), bogus); err != nil {
		t.Fatalf("PutCheckpoint: %v", err)
	}
	if err := s.CloseStorage(); err != nil {
		t.Fatalf("CloseStorage: %v", err)
	}

	if warm, err := Open(fwdProg, dir, WithCheckpointEvery(10), WithWarmStart(true)); err == nil {
		warm.CloseStorage()
		t.Fatal("warm Open accepted a checkpoint that disagrees with the recovered execution")
	} else if !strings.Contains(err.Error(), "disagrees with durable checkpoint") {
		t.Fatalf("warm Open error = %v, want a checkpoint disagreement", err)
	}
	cold, err := Open(fwdProg, dir, WithCheckpointEvery(10))
	if err != nil {
		t.Fatalf("cold Open: %v", err)
	}
	cold.CloseStorage()
}
