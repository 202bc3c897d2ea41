package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/replay"
	"repro/internal/store"
)

// flushPolicy states how the store makes appended events durable; the
// benchmark uses the store's defaults.
var flushPolicy = fmt.Sprintf("default: %d events per segment; writes buffered up to 64 KiB; "+
	"fsync when a segment seals, at every durable checkpoint and at Close", store.DefaultSegmentEvents)

// expectations are the known answers the correctness gates compare
// against. They are written down here, never taken from the code under
// test; the benchmark's tests swap one at a time for a wrong answer to
// show that each gate fires.
type expectations struct {
	// stanfordFaultNode is the router whose misconfigured entry the
	// stanford-cold diagnosis must delete (S2 of §6.7).
	stanfordFaultNode string
	// aggregateExtra lists contributor reports expected missing on top
	// of the seeded ones (empty: the seeded set is the answer).
	aggregateExtra []int
	// forwardExtraEvents is added to the recorded log length the
	// recovered forward-record log must match.
	forwardExtraEvents int
	// table1 maps each Table 1 scenario to its root cause: the changes
	// Δ must list, in order, without their injection ticks.
	table1 map[string][]string
	// aggRetractMisses is the aggregate retraction misses every engine
	// must report.
	aggRetractMisses int
}

func defaultExpectations() expectations {
	return expectations{
		stanfordFaultNode: "ozrtr2",
		table1:            table1RootCauses(),
	}
}

// recording is a recorded execution: its program and its store.
type recording struct {
	prog *ndlog.Program
	dir  string
}

// probeLayers measures the store and ndlog layers on their own over the
// workload's recorded executions, after the measured window of a traced
// run: a bare store open and full read (store.read_ms), and a bare engine
// evaluating the logged base events (ndlog.*). Each takes the median of
// three repetitions.
func probeLayers(r *run, recs ...recording) error {
	var readMs, runMs, allocsPerEvent []float64
	var stats ndlog.Stats
	for rep := 0; rep < 3; rep++ {
		var readDur, runDur time.Duration
		var allocs, events float64
		stats = ndlog.Stats{}
		for _, rc := range recs {
			evs, d, err := readStore(rc.dir)
			if err != nil {
				return err
			}
			readDur += d
			a0 := allocObjects()
			t0 := time.Now()
			e, err := evaluate(rc.prog, evs)
			runDur += time.Since(t0)
			allocs += allocObjects() - a0
			events += float64(len(evs))
			if err != nil {
				return err
			}
			if err := checkEngines(r, e); err != nil {
				return err
			}
			st := e.Stats()
			stats.Derivations += st.Derivations
			stats.Messages += st.Messages
			stats.IndexProbes += st.IndexProbes
			stats.IndexScans += st.IndexScans
			stats.AggRetractMisses += st.AggRetractMisses
		}
		readMs = append(readMs, ms(readDur))
		runMs = append(runMs, ms(runDur))
		allocsPerEvent = append(allocsPerEvent, allocs/max(events, 1))
	}
	r.addLayer("store.read_ms", Summarize(readMs).Median)
	r.addLayer("ndlog.run_ms", Summarize(runMs).Median)
	r.addLayer("ndlog.allocs_per_event", Summarize(allocsPerEvent).Median)
	r.addLayer("ndlog.derivations", float64(stats.Derivations))
	r.addLayer("ndlog.messages", float64(stats.Messages))
	r.addLayer("ndlog.index_probes", float64(stats.IndexProbes))
	r.addLayer("ndlog.index_scans", float64(stats.IndexScans))
	r.addLayer("ndlog.agg_retract_misses", float64(stats.AggRetractMisses))
	return nil
}

// readStore opens the store at dir on its own and streams every event.
func readStore(dir string) ([]replay.Event, time.Duration, error) {
	t0 := time.Now()
	st, err := store.Open(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("opening store %s: %w", dir, err)
	}
	defer st.Close()
	var evs []replay.Event
	if err := st.Events(func(ev store.Event) error {
		evs = append(evs, ev)
		return nil
	}); err != nil {
		return nil, 0, fmt.Errorf("reading store %s: %w", dir, err)
	}
	return evs, time.Since(t0), nil
}

// evaluate runs a bare engine, configured as replay sessions configure
// theirs, over the base events.
func evaluate(prog *ndlog.Program, evs []replay.Event) (*ndlog.Engine, error) {
	e := ndlog.New(prog, nil, ndlog.WithSeqBand(ndlog.SeqBandDefault), ndlog.WithCopyOnWriteForks(true))
	for _, ev := range evs {
		var err error
		if ev.Kind == replay.EvInsert {
			err = e.ScheduleInsert(ev.Node, ev.Tuple, ev.Tick)
		} else {
			err = e.ScheduleDelete(ev.Node, ev.Tuple, ev.Tick)
		}
		if err != nil {
			return nil, fmt.Errorf("scheduling a logged event: %w", err)
		}
	}
	if err := e.Run(); err != nil {
		return nil, fmt.Errorf("evaluating the log: %w", err)
	}
	return e, nil
}

// addReadStats records a store's read counters.
func addReadStats(r *run, rs store.ReadStats) {
	r.addLayer("store.bytes_read", float64(rs.BytesRead))
	r.addLayer("store.records_read", float64(rs.RecordsRead))
	r.addLayer("store.segments_skipped", float64(rs.SegmentsSkipped))
}

// dirSize returns the bytes under dir and the number of event segments.
func dirSize(dir string) (bytes int64, segments int, err error) {
	err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			return nil
		}
		bytes += info.Size()
		if name := info.Name(); strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".log") {
			segments++
		}
		return nil
	})
	if err != nil {
		return 0, 0, fmt.Errorf("sizing store %s: %w", dir, err)
	}
	return bytes, segments, nil
}

// diagnose runs core.Diagnose on world, records its spans (the replay
// time inside it as a derived child) and, in traced operations, the
// reasoning and replay counters.
func diagnose(r *run, tr *tracer, parent, q int, s *replay.Session, good, bad *provenance.Tree,
	world core.World, opts core.Options) (*core.Result, error) {
	count0, time0, stats0 := s.ReplayCount, s.ReplayTime, s.Stats
	var allocs0 float64
	if tr != nil {
		allocs0 = allocObjects()
	}
	sp := tr.start("core.Diagnose", "core", parent, q)
	t0 := time.Now()
	res, err := core.Diagnose(context.Background(), good, bad, world, opts)
	d := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("diagnosis: %w", err)
	}
	if tr == nil {
		return res, nil
	}
	replayTime := s.ReplayTime - time0
	tr.derived("replay.trials", "replay", sp, replayTime)
	r.addLayer("core.allocs_per_query", allocObjects()-allocs0)
	r.addLayer("core.diagnose_ms", ms(d))
	r.addLayer("core.findseed_ms", ms(res.Timings.FindSeed))
	r.addLayer("core.divergence_ms", ms(res.Timings.Divergence))
	r.addLayer("core.makeappear_ms", ms(res.Timings.MakeAppear))
	r.addLayer("core.updatetree_ms", ms(res.Timings.UpdateTree))
	r.addLayer("core.rounds", float64(len(res.Rounds)))
	r.addLayer("core.changes", float64(len(res.Changes)))
	r.addLayer("core.fingerprint_hits", float64(res.Stats.FingerprintHits))
	r.addLayer("core.candidates_deduped", float64(res.Stats.CandidatesDeduped))
	r.addLayer("core.parallel_candidates", float64(res.Stats.ParallelCandidates))
	r.addLayer("core.candidates_sliced", float64(res.Stats.CandidatesSliced))
	r.addLayer("replay.trials", float64(s.ReplayCount-count0))
	r.addLayer("replay.time_ms", ms(replayTime))
	st := s.Stats
	r.addLayer("replay.prefix_hits", float64(st.PrefixHits-stats0.PrefixHits))
	r.addLayer("replay.prefix_misses", float64(st.PrefixMisses-stats0.PrefixMisses))
	r.addLayer("replay.fork_ms", float64(st.ForkNanos-stats0.ForkNanos)/1e6)
	r.addLayer("replay.events_skipped", float64(st.EventsSkipped-stats0.EventsSkipped))
	r.addLayer("replay.events_refired", float64(st.EventsReFired-stats0.EventsReFired))
	r.addLayer("replay.dirty_tables", float64(st.DirtyTables-stats0.DirtyTables))
	return res, nil
}

// checkEngines is the engine-invariant gate: no engine may have missed an
// aggregate retraction.
func checkEngines(r *run, engines ...*ndlog.Engine) error {
	for _, e := range engines {
		if e == nil {
			continue
		}
		if got := e.Stats().AggRetractMisses; got != r.expect.aggRetractMisses {
			return gatef("engine reports %d aggregate retraction misses, want %d", got, r.expect.aggRetractMisses)
		}
	}
	return nil
}

// recordAndReopen records the logged events live, as a running system
// would: Session.Insert for each (live engine plus write-through logging
// to a fresh store at dir), then Session.Run. It then closes the store
// and reopens it into a session ready to diagnose, checking that the
// reopened log is the recorded one.
func recordAndReopen(r *run, tr *tracer, prog *ndlog.Program, l *replay.Log, dir string,
	opts ...replay.SessionOption) (int, time.Duration, time.Duration, error) {
	root := tr.start("record", "bench", 0, -2)
	defer tr.end(root)
	s := replay.NewSession(prog, append(opts, replay.WithStorage(dir))...)
	t0 := time.Now()
	sp := tr.start("replay.Session.Insert", "store", root, -2)
	var err error
	l.Each(func(ev replay.Event) {
		if err != nil {
			return
		}
		if ev.Kind == replay.EvInsert {
			err = s.Insert(ev.Node, ev.Tuple, ev.Tick)
		} else {
			err = s.Delete(ev.Node, ev.Tuple, ev.Tick)
		}
	})
	tr.end(sp)
	appendDur := time.Since(t0)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("recording: %w", err)
	}
	sp = tr.start("replay.Session.Run", "ndlog", root, -2)
	err = s.Run()
	tr.end(sp)
	rec := time.Since(t0)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("recording: %w", err)
	}
	if tr != nil {
		r.addLayer("store.append_ms", ms(appendDur))
	}
	if err := s.CloseStorage(); err != nil {
		return 0, 0, 0, fmt.Errorf("closing the recording: %w", err)
	}
	sp = tr.start("replay.Open", "replay", root, -2)
	t1 := time.Now()
	c, err := replay.Open(prog, dir, opts...)
	rcv := time.Since(t1)
	tr.end(sp)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("reopening the recording: %w", err)
	}
	defer c.CloseStorage()
	if tr != nil {
		addReadStats(r, c.Storage().ReadStats())
	}
	if got, want := c.Log().Len(), l.Len(); got != want {
		return 0, 0, 0, gatef("reopened %d events, recorded %d", got, want)
	}
	if err := checkEngines(r, s.Live(), c.Live()); err != nil {
		return 0, 0, 0, err
	}
	return l.Len(), rec, rcv, nil
}
