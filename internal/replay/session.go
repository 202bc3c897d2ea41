package replay

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/store"
)

// Mode selects how provenance is captured (§5): at runtime (log every
// derivation as it happens; queries are cheap, runtime is expensive) or
// at query time (log base events only; provenance is reconstructed by
// deterministic replay). The paper's prototype defaults to query-time.
type Mode uint8

// Capture modes.
const (
	QueryTime Mode = iota
	Runtime
)

// Change is a counterfactual base-tuple change that UPDATETREE injects
// into a cloned execution (§4.6).
type Change struct {
	Insert bool // true = insert the tuple, false = delete it
	Node   string
	Tuple  ndlog.Tuple
	Tick   int64 // when to apply; "shortly before it is needed" (§4.8)
}

func (c Change) String() string {
	op := "insert"
	if !c.Insert {
		op = "delete"
	}
	return fmt.Sprintf("%s %s on %s at t=%d", op, c.Tuple, c.Node, c.Tick)
}

// ReplayStats counts incremental roll-forward activity. The evaluation
// harness and the server report them alongside the replay timings.
type ReplayStats struct {
	// PrefixHits counts replays that forked an already-materialized
	// engine — the shared base run (delta replay) or a cached prefix
	// (full-suffix replay, ReplayUntil); PrefixMisses counts replays that
	// had to build it first.
	PrefixHits   int64
	PrefixMisses int64
	// ForkNanos is the total wall-clock time spent forking those engines
	// and their provenance graphs (copy-on-write by default).
	ForkNanos int64
	// EventsSkipped is the total number of logged base events that
	// incremental replays did not re-execute (they were already evaluated
	// inside the forked engine; the whole log for a base-run fork).
	EventsSkipped int64
	// EventsReFired is the total number of logged base events that
	// counterfactual replays did re-execute after the fork point. With
	// delta replay (WithDeltaReplay, default on) trials fork the fully
	// evaluated base run and this stays zero: the changes propagate
	// through the delta phase instead of re-firing the suffix.
	EventsReFired int64
	// DirtyTables is the total number of (node, table) pairs the delta
	// phases of counterfactual replays touched — the footprint the
	// semi-naïve propagation actually visited instead of the whole
	// derived state.
	DirtyTables int64
}

// prefixSlack is how many ticks before the earliest injected change the
// roll-forward prefix must stop, so the change still lands in unevaluated
// territory.
const prefixSlack = 1

// maxPrefixEntries is the default bound on the number of materialized
// prefix engines a session (and its clones) keep alive; the oldest entry
// is evicted first. WithPrefixCacheSize overrides it per session.
const maxPrefixEntries = 8

// prefixEntry is one materialized prefix: a recorder-attached engine that
// has every log event scheduled but has only evaluated those at ticks
// <= tick. An entry is published into the cache as a placeholder before
// its engines exist; ready is closed once the build completes (filling
// eng/rec, or err on failure). After ready, the entry is immutable —
// replays Fork it, they never run it — so readers need no lock once
// acquire returns.
type prefixEntry struct {
	tick      int64
	processed int // log events evaluated (tick <= anchor)

	ready chan struct{}
	err   error // build failure; the entry was removed from the cache
	eng   *ndlog.Engine
	rec   *provenance.Recorder
}

// prefixCache holds the materialized prefixes, keyed by anchor tick. It
// is shared by pointer across Clone(), so concurrent diagnoses over the
// same execution reuse each other's prefixes. The mutex only serializes
// lookups and placeholder publication; the expensive part — running the
// prefix engines — happens outside the lock, so two clones can build
// disjoint prefixes in parallel while acquires for an anchor already in
// flight just wait on its ready channel.
type prefixCache struct {
	mu      sync.Mutex
	logLen  int // log length the entries were built from
	entries map[int64]*prefixEntry
	order   []int64 // insertion order, for eviction
	ticks   []int64 // sorted event ticks, for counting events up to an anchor

	// maxEntries caps the cache (WithPrefixCacheSize); 0 means the
	// maxPrefixEntries default.
	maxEntries int

	// buildHook, when set, runs outside the lock at the start of every
	// prefix build; tests use it to prove builds overlap.
	buildHook func(anchor int64)
}

// baseRun is the log evaluated in full, once, with a provenance recorder
// attached, then sealed: the engine and graph Graph() returns in
// QueryTime mode, and the copy-on-write anchor every delta trial forks
// (§4.6: clone the recorded execution, change only the clone). It is
// published as a placeholder before its engine exists; ready is closed
// once the build completes (filling eng/rec, or err on failure). After
// ready it is immutable, so readers need no lock.
type baseRun struct {
	logLen int // log length the run was built from

	ready chan struct{}
	err   error
	eng   *ndlog.Engine
	rec   *provenance.Recorder
}

// baseRunCache holds the current base run. It is shared by pointer
// across Clone(), so clones taken before the first Graph() still pay for
// one build between them: the first acquire for a log length publishes
// a placeholder and builds outside the lock, later ones wait on it.
type baseRunCache struct {
	mu  sync.Mutex
	cur *baseRun

	// buildHook, when set, runs outside the lock at the start of every
	// build; tests use it to count builds. waitHook, when set, runs
	// outside the lock whenever an acquire is about to wait on a run
	// another caller published; tests use it to order a waiter before the
	// builder finishes.
	buildHook func()
	waitHook  func()
}

// Session couples a live engine with the logging engine, and provides the
// replay operations DiffProv needs. It is the embodiment of the paper's
// five-component architecture minus the reasoning engine (which lives in
// internal/core): recorder + logging engine + replay engine.
type Session struct {
	prog *ndlog.Program
	mode Mode
	log  *Log

	live    *ndlog.Engine
	liveRec *provenance.Recorder // only in Runtime mode

	ckptEvery int64 // checkpoint interval in ticks; 0 disables
	lastCkpt  int64
	ckpts     []ndlog.Snapshot

	// base is the shared sealed base run (see baseRun).
	base *baseRunCache

	// incremental enables checkpoint-anchored roll-forward: ReplayWith
	// forks a cached engine instead of re-executing the whole log.
	incremental bool
	prefix      *prefixCache
	// deltaReplay makes counterfactual trials fork the shared base run
	// (default on) and propagate only their change set through the
	// engine's delta phase instead of re-firing the event suffix.
	deltaReplay bool
	// cowForks makes cached engines sealed and forked copy-on-write
	// (default on); prefixSize overrides the prefix-cache capacity; and
	// warmStart makes Open build the engine the first counterfactual
	// replay after a restart forks (see warmAnchor).
	cowForks   bool
	prefixSize int
	warmStart  bool

	// ReplayTime accumulates wall-clock time spent replaying (including
	// base-run builds and prefix materialization), and ReplayCount the
	// number of replays; the turnaround experiments (Figure 7) read these.
	ReplayTime  time.Duration
	ReplayCount int
	// Stats counts incremental roll-forward activity.
	Stats ReplayStats

	engineOpts []ndlog.Option
	recOpts    []provenance.RecorderOption

	// Persistent storage backing (WithStorage); nil for in-memory
	// sessions. stErr is a storage-attach failure, reported by the first
	// Insert/Delete/Run call since options cannot fail.
	storageDir string
	storeOpts  []store.Option
	storage    *sessionStorage
	stErr      error
}

// SessionOption configures a Session.
type SessionOption func(*Session)

// WithMode selects the capture mode (default QueryTime).
func WithMode(m Mode) SessionOption { return func(s *Session) { s.mode = m } }

// WithCheckpointEvery enables periodic state checkpoints at the given
// tick interval.
func WithCheckpointEvery(ticks int64) SessionOption {
	return func(s *Session) { s.ckptEvery = ticks }
}

// WithEngineOptions passes options to every engine the session creates.
func WithEngineOptions(opts ...ndlog.Option) SessionOption {
	return func(s *Session) { s.engineOpts = opts }
}

// WithIncrementalReplay enables or disables checkpoint-anchored
// incremental roll-forward (default on). Replay results are identical
// either way — a forked prefix reproduces the from-scratch execution
// stamp-for-stamp (asserted by TestForkDifferential); the switch exists
// for that differential test and as an escape hatch.
func WithIncrementalReplay(on bool) SessionOption {
	return func(s *Session) { s.incremental = on }
}

// WithCopyOnWriteForks enables or disables copy-on-write prefix forks
// (default on): cached prefix engines and recorders are sealed when
// published and counterfactual forks share their frozen state, cloning a
// table or index overlay only on first write. Replay results are
// byte-identical either way — the differential suites run both arms; the
// switch exists for them and as an escape hatch.
func WithCopyOnWriteForks(on bool) SessionOption {
	return func(s *Session) { s.cowForks = on }
}

// WithDeltaReplay enables or disables delta replay (default on): with it
// on, a counterfactual ReplayWith forks the cached base run — the log
// evaluated to its last tick — and seeds the engine's semi-naïve delta
// queue with the change set, re-deriving only affected state instead of
// re-firing the whole event suffix after the earliest change. Results
// are byte-identical either way (asserted by TestDeltaDifferential); the
// switch exists for that differential test and as an ablation flag.
func WithDeltaReplay(on bool) SessionOption {
	return func(s *Session) { s.deltaReplay = on }
}

// WithPrefixCacheSize overrides how many materialized prefix engines the
// session (and its clones) keep alive (default 8). Values below 1 are
// clamped to 1.
func WithPrefixCacheSize(n int) SessionOption {
	return func(s *Session) {
		if n < 1 {
			n = 1
		}
		s.prefixSize = n
	}
}

// WithWarmStart makes Open build, after a restart (default off), the
// engine the first counterfactual replay forks, so that replay does not
// pay for the build: the shared base run (see Graph) under delta replay,
// the prefix at the last durable checkpoint under WithDeltaReplay(false),
// nothing under WithIncrementalReplay(false). It is rebuilt from the
// in-memory log — no additional store reads — and Open first verifies the
// recovered execution against the last durable checkpoint snapshot.
func WithWarmStart(on bool) SessionOption {
	return func(s *Session) { s.warmStart = on }
}

// WithEagerAggregates makes every recorder the session creates
// materialize aggregate contributor lists eagerly at record time instead
// of folding delta chains on demand (default lazy). Folded trees, diffs,
// and diagnoses are byte-identical either way (asserted by
// TestAggregateFoldDifferential); the switch exists for that differential
// test and as an escape hatch.
func WithEagerAggregates(on bool) SessionOption {
	return func(s *Session) {
		s.recOpts = []provenance.RecorderOption{provenance.WithEagerAggregates(on)}
	}
}

// NewSession creates a session for the given program.
func NewSession(prog *ndlog.Program, opts ...SessionOption) *Session {
	s := &Session{
		prog:        prog,
		log:         NewLog(),
		incremental: true,
		deltaReplay: true,
		cowForks:    true,
		base:        &baseRunCache{},
		prefix:      &prefixCache{entries: map[int64]*prefixEntry{}},
	}
	for _, o := range opts {
		o(s)
	}
	s.prefix.maxEntries = s.prefixSize
	if s.mode == Runtime {
		s.liveRec = provenance.NewRecorder(prog, s.newRecOpts()...)
		s.live = ndlog.New(prog, s.liveRec, s.newEngineOpts()...)
	} else {
		s.live = ndlog.New(prog, nil, s.newEngineOpts()...)
	}
	if s.storageDir != "" {
		if err := s.attachStorage(s.storageDir); err != nil {
			s.stErr = fmt.Errorf("replay: attaching storage at %s: %v", s.storageDir, err)
		}
	}
	return s
}

// newEngineOpts returns the option set for a session-created engine.
// Every engine gets a sequence band: base-event stamps then depend only
// on schedule positions and internal stamps only on processing positions,
// which (a) makes live execution independent of how scheduling
// interleaves with Run calls, and (b) is what lets a forked prefix engine
// reproduce a from-scratch replay byte-for-byte. User options follow, so
// they win on conflict.
func (s *Session) newEngineOpts() []ndlog.Option {
	opts := make([]ndlog.Option, 0, len(s.engineOpts)+2)
	opts = append(opts, ndlog.WithSeqBand(ndlog.SeqBandDefault))
	opts = append(opts, ndlog.WithCopyOnWriteForks(s.cowForks))
	return append(opts, s.engineOpts...)
}

// newRecOpts returns the option set for a session-created recorder. The
// session's copy-on-write setting comes first so user options win on
// conflict.
func (s *Session) newRecOpts() []provenance.RecorderOption {
	opts := make([]provenance.RecorderOption, 0, len(s.recOpts)+1)
	opts = append(opts, provenance.WithCopyOnWriteForks(s.cowForks))
	return append(opts, s.recOpts...)
}

// FromLog reconstructs a session from a previously captured base-event
// log: the log is re-driven through a fresh live engine, after which the
// session is indistinguishable from the one that recorded it — including
// its checkpoint set, which depends only on the event schedule (see Run).
// This is how a diagnosis is run offline against saved logs.
func FromLog(prog *ndlog.Program, l *Log, opts ...SessionOption) (*Session, error) {
	s := NewSession(prog, opts...)
	var driveErr error
	l.Each(func(ev Event) {
		if driveErr != nil {
			return
		}
		if ev.Kind == EvInsert {
			driveErr = s.Insert(ev.Node, ev.Tuple, ev.Tick)
		} else {
			driveErr = s.Delete(ev.Node, ev.Tuple, ev.Tick)
		}
	})
	if driveErr != nil {
		return nil, fmt.Errorf("replay: rebuilding session: %v", driveErr)
	}
	if err := s.Run(); err != nil {
		return nil, fmt.Errorf("replay: rebuilding session: %v", err)
	}
	return s, nil
}

// Clone returns an independent session over the same captured execution.
// It reuses the copy-on-write structure of counterfactual roll-forward
// (§4.6): the immutable program, engine options, sealed base run, and the
// prefix cache are shared, the base-event log is copied, and the replay
// statistics start at zero. Clones are how concurrent diagnoses isolate
// their mutable state — each one replays and accounts time privately, so
// a completed session can serve any number of clones in parallel.
//
// The live engine is shared read-only; driving the execution further
// (Insert/Delete/Run) must happen on the original session, not a clone.
// That sharing extends to the engines' join indexes: indexes are built
// eagerly while an engine runs and are never created or mutated by
// queries (TuplesAt/TuplesMatchingAt/Exists), so concurrent clones can
// probe the shared live or base-run engine without locking. The base
// run and the prefix cache are shared by pointer and internally
// synchronized: each materialized engine is sealed once published, and
// every counterfactual roll-forward (ReplayWith) Forks it into a private
// engine of its own.
//
// Clones detach from persistent storage: only the original session
// verifies, appends, and checkpoints through the store. A diagnosis that
// must survive concurrent GC pins its anchor on the original
// (PinStorage).
func (s *Session) Clone() *Session {
	return &Session{
		prog:        s.prog,
		mode:        s.mode,
		log:         s.log.Clone(),
		live:        s.live,
		liveRec:     s.liveRec,
		ckptEvery:   s.ckptEvery,
		lastCkpt:    s.lastCkpt,
		ckpts:       append([]ndlog.Snapshot(nil), s.ckpts...),
		incremental: s.incremental,
		deltaReplay: s.deltaReplay,
		base:        s.base,
		prefix:      s.prefix,
		engineOpts:  s.engineOpts,
		recOpts:     s.recOpts,
		cowForks:    s.cowForks,
		prefixSize:  s.prefixSize,
		warmStart:   s.warmStart,
	}
}

// ResetStats zeroes the replay statistics, so subsequent replays are
// accounted from a clean slate (per-request deltas).
func (s *Session) ResetStats() {
	s.ReplayTime = 0
	s.ReplayCount = 0
	s.Stats = ReplayStats{}
}

// AbsorbStats folds the replay statistics accumulated by another session
// (typically a worker Clone that ran counterfactual replays on behalf of
// this one) into the receiver. The caller must ensure the other session is
// quiescent.
func (s *Session) AbsorbStats(other *Session) {
	if other == nil {
		return
	}
	s.ReplayTime += other.ReplayTime
	s.ReplayCount += other.ReplayCount
	s.Stats.PrefixHits += other.Stats.PrefixHits
	s.Stats.PrefixMisses += other.Stats.PrefixMisses
	s.Stats.ForkNanos += other.Stats.ForkNanos
	s.Stats.EventsSkipped += other.Stats.EventsSkipped
	s.Stats.EventsReFired += other.Stats.EventsReFired
	s.Stats.DirtyTables += other.Stats.DirtyTables
}

// Program returns the session's program.
func (s *Session) Program() *ndlog.Program { return s.prog }

// Live returns the live engine (the "runtime system").
func (s *Session) Live() *ndlog.Engine { return s.live }

// Log returns the base-event log.
func (s *Session) Log() *Log { return s.log }

// Mode returns the capture mode.
func (s *Session) Mode() Mode { return s.mode }

// Checkpoints returns a copy of the state checkpoints captured so far.
// (A copy, so callers cannot perturb the session's checkpoint sequence —
// StateAt and the prefix-anchor search rely on it being tick-sorted.)
func (s *Session) Checkpoints() []ndlog.Snapshot {
	return append([]ndlog.Snapshot(nil), s.ckpts...)
}

// Insert logs and schedules a base-tuple insertion on the live system.
func (s *Session) Insert(node string, t ndlog.Tuple, tick int64) error {
	if s.stErr != nil {
		return s.stErr
	}
	if err := s.live.ScheduleInsert(node, t, tick); err != nil {
		return err
	}
	return s.logEvent(Event{Kind: EvInsert, Node: node, Tuple: t, Tick: tick})
}

// Delete logs and schedules a base-tuple deletion on the live system.
func (s *Session) Delete(node string, t ndlog.Tuple, tick int64) error {
	if s.stErr != nil {
		return s.stErr
	}
	if err := s.live.ScheduleDelete(node, t, tick); err != nil {
		return err
	}
	return s.logEvent(Event{Kind: EvDelete, Node: node, Tuple: t, Tick: tick})
}

// Run drains the live engine and takes due checkpoints — one per
// checkpoint interval crossed, not one per call. The capture rule depends
// only on the event schedule (a checkpoint lands on the first
// event-bearing tick at or past each interval boundary), so a session
// rebuilt from the log with a single Run (FromLog) reproduces the
// checkpoint set of the live session that recorded it, no matter how the
// live drive batched its Run calls.
func (s *Session) Run() error {
	if s.stErr != nil {
		return s.stErr
	}
	if s.ckptEvery <= 0 {
		return s.live.Run()
	}
	for {
		t, ok := s.live.NextPendingTick()
		if !ok {
			return nil
		}
		if err := s.live.RunUntil(t); err != nil {
			return err
		}
		if t >= s.lastCkpt+s.ckptEvery {
			snap := s.live.CaptureStateAt(t)
			s.ckpts = append(s.ckpts, snap)
			s.lastCkpt = t
			if err := s.putCheckpoint(snap); err != nil {
				return err
			}
		}
	}
}

// StateAt returns the most recent checkpoint at or before the tick, if
// one exists. Checkpoints are tick-sorted (Run appends them in order), so
// this is a binary search. This is the fast path for state inspection;
// provenance queries replay instead.
func (s *Session) StateAt(tick int64) (ndlog.Snapshot, bool) {
	i := sort.Search(len(s.ckpts), func(i int) bool { return s.ckpts[i].Tick > tick })
	if i == 0 {
		return ndlog.Snapshot{}, false
	}
	return s.ckpts[i-1], true
}

// Graph returns the provenance graph of the execution so far: directly in
// Runtime mode, from the shared base run in QueryTime mode. The returned
// engine exposes the temporal store backing the graph. In QueryTime mode
// both are sealed and read-only: counterfactual trials fork them, so they
// must never be run, scheduled, or recorded into (a sealed engine refuses
// Run and Schedule*). The base run is built on first use per log length
// and shared with every clone; a build counts as one replay in
// ReplayCount and ReplayTime.
func (s *Session) Graph() (*ndlog.Engine, *provenance.Graph, error) {
	if s.mode == Runtime {
		return s.live, s.liveRec.Graph(), nil
	}
	start := time.Now() //diffprov:allow detnow (stats timing only; never feeds derivation)
	b, built, err := s.base.acquire(context.Background(), s)
	if err != nil {
		return nil, nil, err
	}
	if built {
		s.ReplayTime += time.Since(start) //diffprov:allow detnow
		s.ReplayCount++
	}
	return b.eng, b.rec.Graph(), nil
}

// Replay deterministically re-executes the log from scratch with a
// provenance recorder attached and returns the fresh engine and graph.
func (s *Session) Replay() (*ndlog.Engine, *provenance.Graph, error) {
	return s.ReplayWith(nil)
}

// ReplayWith clones the logged execution and rolls it forward with the
// given counterfactual changes injected at their ticks. The live system
// is never touched (§4.6: "DiffProv clones the current state of the
// system ... and applies its changes only to the clone").
func (s *Session) ReplayWith(changes []Change) (*ndlog.Engine, *provenance.Graph, error) {
	return s.ReplayWithContext(context.Background(), changes)
}

// ctxCheckEvery is how many scheduled events pass between cancellation
// checks during a replay.
const ctxCheckEvery = 4096

// ReplayWithContext is ReplayWith honoring cancellation and deadlines:
// the replay aborts with the context's error as soon as the cancellation
// is observed (between scheduled events).
//
// With incremental and delta replay enabled (the default) and at least
// one change to inject, the replay forks the shared base run (see Graph)
// copy-on-write and pushes the changes through the engine's
// counterfactual phase. The result is byte-identical to the from-scratch
// path: the counterfactual phase starts only after the main work heap
// drains, so a fork of the drained base run carries out exactly the work
// a from-scratch engine does once its own base run has drained.
//
// With delta replay off (the full-suffix ablation arm), the replay forks
// a cached prefix engine — the log evaluated up to an anchor tick shortly
// before the earliest change — and re-fires the suffix. Base-event stamps
// are schedule positions (the prefix had the whole log scheduled before
// it ran), internal stamps are processing positions, and the fork copies
// the mid-execution state exactly.
func (s *Session) ReplayWithContext(ctx context.Context, changes []Change) (*ndlog.Engine, *provenance.Graph, error) {
	start := time.Now() //diffprov:allow detnow (stats timing only; never feeds derivation)
	defer func() {
		s.ReplayTime += time.Since(start) //diffprov:allow detnow
		s.ReplayCount++
	}()
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("replay: %w", err)
	}
	if s.incremental && s.deltaReplay && len(changes) > 0 {
		e, rec, err := s.forkBase(ctx)
		if err != nil {
			return nil, nil, err
		}
		if err := s.scheduleChanges(ctx, e, changes); err != nil {
			return nil, nil, err
		}
		if err := e.Run(); err != nil {
			return nil, nil, fmt.Errorf("replay: %v", err)
		}
		s.Stats.DirtyTables += int64(e.Stats().DirtyTables)
		return e, rec.Graph(), nil
	}
	if s.incremental && len(changes) > 0 {
		if anchor, ok := s.anchorFor(changes); ok {
			e, rec, processed, err := s.forkPrefix(ctx, anchor)
			if err != nil {
				return nil, nil, err
			}
			if e != nil {
				if err := s.scheduleChanges(ctx, e, changes); err != nil {
					return nil, nil, err
				}
				if err := e.Run(); err != nil {
					return nil, nil, fmt.Errorf("replay: %v", err)
				}
				s.Stats.EventsReFired += int64(s.log.Len() - processed)
				s.Stats.DirtyTables += int64(e.Stats().DirtyTables)
				return e, rec.Graph(), nil
			}
			// No log events at or before the anchor: fall through to the
			// (equally cheap) from-scratch path.
		}
	}
	e, rec, err := s.scheduleScratch(ctx)
	if err != nil {
		return nil, nil, err
	}
	if err := s.scheduleChanges(ctx, e, changes); err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("replay: %w", err)
	}
	if err := e.Run(); err != nil {
		return nil, nil, fmt.Errorf("replay: %v", err)
	}
	if len(changes) > 0 {
		s.Stats.EventsReFired += int64(s.log.Len())
		s.Stats.DirtyTables += int64(e.Stats().DirtyTables)
	}
	return e, rec.Graph(), nil
}

// ReplayUntil replays the execution truncated at the given tick — the
// "selective reconstruction" optimization for queries about past events.
// Base events after the tick are excluded; consequences of events at or
// before it are fully evaluated, even when the transit delay carries them
// past the horizon. It delegates to ReplayUntilContext.
func (s *Session) ReplayUntil(tick int64) (*ndlog.Engine, *provenance.Graph, error) {
	return s.ReplayUntilContext(context.Background(), tick)
}

// ReplayUntilContext is ReplayUntil honoring cancellation and deadlines.
// It shares the scheduling and incremental roll-forward machinery of
// ReplayWithContext: with incremental replay on, the truncated replay
// forks a cached prefix anchored at or before the horizon and only
// evaluates the remainder.
func (s *Session) ReplayUntilContext(ctx context.Context, tick int64) (*ndlog.Engine, *provenance.Graph, error) {
	start := time.Now() //diffprov:allow detnow (stats timing only; never feeds derivation)
	defer func() {
		s.ReplayTime += time.Since(start) //diffprov:allow detnow
		s.ReplayCount++
	}()
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("replay: %w", err)
	}
	var e *ndlog.Engine
	var rec *provenance.Recorder
	if s.incremental && tick >= 0 {
		fe, frec, _, err := s.forkPrefix(ctx, tick)
		if err != nil {
			return nil, nil, err
		}
		e, rec = fe, frec
	}
	if e == nil {
		se, srec, err := s.scheduleScratch(ctx)
		if err != nil {
			return nil, nil, err
		}
		e, rec = se, srec
	}
	e.DropPendingBaseAfter(tick)
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("replay: %w", err)
	}
	if err := e.Run(); err != nil {
		return nil, nil, fmt.Errorf("replay: %v", err)
	}
	return e, rec.Graph(), nil
}

// anchorFor picks the prefix anchor tick for a set of changes: the
// earliest injection tick minus the slack, snapped down to a checkpoint
// when one covers it. Returns false when the changes leave no room for a
// prefix.
func (s *Session) anchorFor(changes []Change) (int64, bool) {
	minTick := changes[0].Tick
	for _, c := range changes[1:] {
		if c.Tick < minTick {
			minTick = c.Tick
		}
	}
	target := minTick - prefixSlack
	if target < 0 {
		return 0, false
	}
	return target, true
}

// snapToCheckpoint rounds an anchor target down to the latest checkpoint
// tick at or before it, when one exists. The checkpoint grid coarsens
// the cache's base layer — injections at nearby ticks roll forward from
// one shared checkpoint-anchored prefix instead of each paying a full
// from-scratch materialization. Without checkpoints the target itself
// anchors the base.
func (s *Session) snapToCheckpoint(target int64) int64 {
	i := sort.Search(len(s.ckpts), func(i int) bool { return s.ckpts[i].Tick > target })
	if i > 0 {
		return s.ckpts[i-1].Tick
	}
	return target
}

// forkBase returns a private copy-on-write fork of the shared base run,
// building the run first when no clone has yet. A fork of an existing
// run counts as a prefix hit, a build as a miss.
func (s *Session) forkBase(ctx context.Context) (*ndlog.Engine, *provenance.Recorder, error) {
	b, built, err := s.base.acquire(ctx, s)
	if err != nil {
		return nil, nil, err
	}
	if built {
		s.Stats.PrefixMisses++
	} else {
		s.Stats.PrefixHits++
	}
	forkStart := time.Now() //diffprov:allow detnow (stats timing only; never feeds derivation)
	rec := b.rec.Fork()
	e := b.eng.Fork(rec)
	s.Stats.ForkNanos += time.Since(forkStart).Nanoseconds() //diffprov:allow detnow
	s.Stats.EventsSkipped += int64(b.logLen)
	return e, rec, nil
}

// acquire returns the ready base run for the session's current log
// length, and whether this call built it. The lock only covers the
// lookup and placeholder publication; the run itself is built outside
// it, and concurrent acquires for the same length wait on the
// placeholder instead of duplicating the work. A run built from a
// shorter log is replaced. A waiter whose builder failed retries, so one
// caller's cancelled context never fails another's request.
func (c *baseRunCache) acquire(ctx context.Context, s *Session) (*baseRun, bool, error) {
	for {
		c.mu.Lock()
		b := c.cur
		if b == nil || b.logLen != s.log.Len() {
			break // still locked: publish and build below
		}
		wait := c.waitHook
		c.mu.Unlock()
		if wait != nil {
			wait()
		}
		select {
		case <-b.ready:
		case <-ctx.Done():
			return nil, false, fmt.Errorf("replay: %w", ctx.Err())
		}
		if b.err == nil {
			return b, false, nil
		}
	}
	b := &baseRun{logLen: s.log.Len(), ready: make(chan struct{})}
	c.cur = b
	hook := c.buildHook
	c.mu.Unlock()
	if hook != nil {
		hook()
	}
	eng, rec, err := s.scheduleScratch(ctx)
	if err == nil {
		if rerr := eng.Run(); rerr != nil {
			err = fmt.Errorf("replay: building base run: %v", rerr)
		}
	}
	if err != nil {
		b.err = err
		c.mu.Lock()
		if c.cur == b {
			c.cur = nil
		}
		c.mu.Unlock()
		close(b.ready)
		return nil, false, err
	}
	// The base run is immutable by contract; sealing makes the engine
	// enforce that and enables copy-on-write forks of the pair.
	rec.Seal()
	eng.Seal()
	b.eng, b.rec = eng, rec
	close(b.ready)
	return b, true, nil
}

// forkPrefix returns a private fork of the materialized prefix anchored
// at the tick, building (and caching) the prefix on a miss, plus the
// number of log events the prefix already evaluated. A nil engine with
// nil error means no prefix is worthwhile (no log events at or before
// the anchor) and the caller should run from scratch.
func (s *Session) forkPrefix(ctx context.Context, anchor int64) (*ndlog.Engine, *provenance.Recorder, int, error) {
	entry, hit, err := s.prefix.acquire(ctx, s, anchor)
	if err != nil {
		return nil, nil, 0, err
	}
	if entry == nil {
		return nil, nil, 0, nil
	}
	if hit {
		s.Stats.PrefixHits++
	} else {
		s.Stats.PrefixMisses++
	}
	forkStart := time.Now() //diffprov:allow detnow (stats timing only; never feeds derivation)
	rec := entry.rec.Fork()
	e := entry.eng.Fork(rec)
	s.Stats.ForkNanos += time.Since(forkStart).Nanoseconds() //diffprov:allow detnow
	s.Stats.EventsSkipped += int64(entry.processed)
	return e, rec, entry.processed, nil
}

// acquire returns the ready prefix entry for the anchor, building it on
// a miss. The lock only covers lookup and placeholder publication —
// running the prefix engines happens outside it, so concurrent clones
// build disjoint prefixes in parallel, and acquires for an anchor whose
// build is in flight wait on its ready channel instead of duplicating
// the work. A stale cache (the log grew since the entries were built) is
// invalidated wholesale.
//
// The cache is two-layered. The base layer is checkpoint-anchored: a
// miss with no usable cached entry materializes a from-scratch prefix
// run to the latest checkpoint at or before the anchor, so nearby
// anchors share one expensive build. On top of it, exact-anchor entries
// are refined incrementally — fork the closest entry at or before the
// anchor and roll it forward the few remaining ticks — so steady-state
// replays (minimize's candidate subsets, repeated counterfactuals at one
// tick) fork an engine that has already evaluated everything up to the
// slack window and pay only for the change itself.
func (c *prefixCache) acquire(ctx context.Context, s *Session, anchor int64) (*prefixEntry, bool, error) {
	c.mu.Lock()
	if c.logLen != s.log.Len() {
		c.entries = map[int64]*prefixEntry{}
		c.order = c.order[:0]
		c.logLen = s.log.Len()
		// Rebuild the count index: sorted event ticks, so counting the
		// events at or before an anchor is a binary search instead of a
		// scan of the whole log under the mutex.
		c.ticks = c.ticks[:0]
		s.log.Each(func(ev Event) { c.ticks = append(c.ticks, ev.Tick) })
		sort.Slice(c.ticks, func(i, j int) bool { return c.ticks[i] < c.ticks[j] })
	}
	countUpTo := func(tick int64) int {
		return sort.Search(len(c.ticks), func(i int) bool { return c.ticks[i] > tick })
	}
	processed := countUpTo(anchor)
	if processed == 0 {
		c.mu.Unlock()
		return nil, false, nil // an empty prefix saves nothing
	}
	if e, ok := c.entries[anchor]; ok {
		c.mu.Unlock()
		return c.await(ctx, e, true)
	}

	// Plan the build while still holding the lock. The closest entry at
	// or before the anchor (possibly still building) is the cheapest
	// starting point; with none, a from-scratch base anchored at the
	// latest covering checkpoint is planned too. Placeholders for
	// everything this build will produce are published before unlocking,
	// so concurrent acquires join the in-flight work.
	var base *prefixEntry
	for t, e := range c.entries {
		if t <= anchor && (base == nil || t > base.tick) {
			base = e
		}
	}
	entry := &prefixEntry{tick: anchor, processed: processed, ready: make(chan struct{})}
	scratchSelf := false     // the scratch build IS the entry (checkpoint lands on the anchor)
	var ownBase *prefixEntry // scratch base this goroutine must build first
	if base == nil {
		if ck := s.snapToCheckpoint(anchor); ck == anchor {
			scratchSelf = true
		} else {
			base = &prefixEntry{tick: ck, processed: countUpTo(ck), ready: make(chan struct{})}
			c.publish(base)
			ownBase = base
		}
	}
	c.publish(entry)
	hook := c.buildHook
	c.mu.Unlock()
	if hook != nil {
		hook(anchor)
	}

	if scratchSelf {
		if err := c.buildScratch(ctx, s, entry); err != nil {
			return nil, false, err
		}
		return entry, false, nil
	}
	if ownBase != nil {
		if err := c.buildScratch(ctx, s, ownBase); err != nil {
			c.fail(entry, err)
			return nil, false, err
		}
	}

	// Refine: wait for the base, then roll a fork of it forward to the
	// exact anchor.
	select {
	case <-base.ready:
	case <-ctx.Done():
		err := fmt.Errorf("replay: %w", ctx.Err())
		c.fail(entry, err)
		return nil, false, err
	}
	if base.err != nil {
		c.fail(entry, base.err)
		return nil, false, base.err
	}
	rec := base.rec.Fork()
	e := base.eng.Fork(rec)
	if err := e.RunUntil(anchor); err != nil {
		err = fmt.Errorf("replay: refining prefix: %v", err)
		c.fail(entry, err)
		return nil, false, err
	}
	// Published entries are immutable by contract; sealing makes the
	// engine enforce that and enables copy-on-write forks of the pair.
	rec.Seal()
	e.Seal()
	entry.eng, entry.rec = e, rec
	close(entry.ready)
	return entry, false, nil
}

// buildScratch materializes a placeholder entry from scratch: schedule
// the whole log on a fresh recorder-attached engine and evaluate it up
// to the entry's tick. Runs outside the cache lock.
func (c *prefixCache) buildScratch(ctx context.Context, s *Session, e *prefixEntry) error {
	eng, rec, err := s.scheduleScratch(ctx)
	if err == nil {
		if rerr := eng.RunUntil(e.tick); rerr != nil {
			err = fmt.Errorf("replay: materializing prefix: %v", rerr)
		}
	}
	if err != nil {
		c.fail(e, err)
		return err
	}
	// Published entries are immutable by contract; sealing makes the
	// engine enforce that and enables copy-on-write forks of the pair.
	rec.Seal()
	eng.Seal()
	e.eng, e.rec = eng, rec
	close(e.ready)
	return nil
}

// await blocks until the entry's build completes (or the context ends)
// and returns it ready for forking.
func (c *prefixCache) await(ctx context.Context, e *prefixEntry, hit bool) (*prefixEntry, bool, error) {
	select {
	case <-e.ready:
	case <-ctx.Done():
		return nil, false, fmt.Errorf("replay: %w", ctx.Err())
	}
	if e.err != nil {
		return nil, false, e.err
	}
	return e, hit, nil
}

// fail completes a placeholder with an error, releasing its waiters and
// removing it from the cache so a later acquire retries the build.
func (c *prefixCache) fail(e *prefixEntry, err error) {
	e.err = err
	close(e.ready)
	c.unpublish(e)
}

// publish inserts an entry, evicting the oldest beyond capacity; a
// duplicate tick replaces the live entry in place WITHOUT queueing a
// second order slot (a second slot would make a later eviction delete a
// live entry while its tick stayed queued, desyncing entries and order
// and shrinking the effective capacity). Callers hold c.mu.
func (c *prefixCache) publish(e *prefixEntry) {
	if _, ok := c.entries[e.tick]; ok {
		c.entries[e.tick] = e
		return
	}
	max := c.maxEntries
	if max == 0 {
		max = maxPrefixEntries
	}
	if len(c.order) >= max {
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
	}
	c.entries[e.tick] = e
	c.order = append(c.order, e.tick)
}

// unpublish removes an entry if it is still the one cached at its tick
// (it may have been replaced, evicted, or invalidated away meanwhile),
// keeping entries and order in sync.
func (c *prefixCache) unpublish(e *prefixEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[e.tick] != e {
		return
	}
	delete(c.entries, e.tick)
	for i, t := range c.order {
		if t == e.tick {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
}

// scheduleScratch builds a fresh recorder-attached engine with the whole
// log scheduled but nothing evaluated.
func (s *Session) scheduleScratch(ctx context.Context) (*ndlog.Engine, *provenance.Recorder, error) {
	rec := provenance.NewRecorder(s.prog, s.newRecOpts()...)
	e := ndlog.New(s.prog, rec, s.newEngineOpts()...)
	for i, ev := range s.log.events {
		if i%ctxCheckEvery == ctxCheckEvery-1 {
			if err := ctx.Err(); err != nil {
				return nil, nil, fmt.Errorf("replay: %w", err)
			}
		}
		var err error
		if ev.Kind == EvInsert {
			err = e.ScheduleInsert(ev.Node, ev.Tuple, ev.Tick)
		} else {
			err = e.ScheduleDelete(ev.Node, ev.Tuple, ev.Tick)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("replay: %v", err)
		}
	}
	return e, rec, nil
}

// scheduleChanges schedules the injected counterfactual changes through
// the engine's counterfactual phase (ScheduleCFInsert/Delete): they are
// applied after the base run settles, in stamp order, with only affected
// derivations re-evaluated. The engine already has the log scheduled (or
// evaluated, in a fork), so the changes take the next base sequence
// numbers either way — which is what makes the delta-forked and
// from-scratch arms byte-identical.
func (s *Session) scheduleChanges(ctx context.Context, e *ndlog.Engine, changes []Change) error {
	for i, c := range changes {
		if i%ctxCheckEvery == ctxCheckEvery-1 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("replay: %w", err)
			}
		}
		var err error
		if c.Insert {
			err = e.ScheduleCFInsert(c.Node, c.Tuple, c.Tick)
		} else {
			err = e.ScheduleCFDelete(c.Node, c.Tuple, c.Tick)
		}
		if err != nil {
			return fmt.Errorf("replay: injecting %s: %w", c, err)
		}
	}
	return nil
}
