package replay_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/replay"
	"repro/internal/scenarios"
	"repro/internal/stanford"
)

// smallBackbone builds a small Stanford backbone (the package tests' size).
func smallBackbone(t *testing.T) *stanford.Backbone {
	t.Helper()
	bb, err := stanford.Build(stanford.Config{Seed: 1, ForwardingEntries: 300, ACLRules: 30, BackgroundPackets: 100})
	if err != nil {
		t.Fatal(err)
	}
	return bb
}

// baseRunCase is one recorded execution the shared-base tests replay.
type baseRunCase struct {
	name string
	prog *ndlog.Program
	log  *replay.Log
}

func baseRunCases(t *testing.T) []baseRunCase {
	t.Helper()
	var cases []baseRunCase
	for _, name := range scenarios.Names() {
		s, err := scenarios.Build(name, scenarios.Small)
		if err != nil {
			t.Fatal(err)
		}
		if s.BadSession == nil {
			continue // imperative (no replay session)
		}
		cases = append(cases, baseRunCase{name, s.BadSession.Program(), s.BadSession.Log()})
	}
	sess := smallBackbone(t).Net.Session()
	return append(cases, baseRunCase{"stanford", sess.Program(), sess.Log()})
}

// baseRunChanges returns named change sets over a log: a mid-log insert,
// a deletion of a mutable base tuple, and an insert past the last logged
// tick.
func baseRunChanges(prog *ndlog.Program, log *replay.Log) map[string][]replay.Change {
	events := log.Events()
	var last int64
	for _, ev := range events {
		if ev.Tick > last {
			last = ev.Tick
		}
	}
	mid := events[len(events)/2]
	out := map[string][]replay.Change{
		"mid-insert":     {{Insert: true, Node: mid.Node, Tuple: mid.Tuple, Tick: mid.Tick + 1}},
		"past-last-tick": {{Insert: true, Node: events[0].Node, Tuple: events[0].Tuple, Tick: last + 10}},
	}
	for _, ev := range events {
		if ev.Kind == replay.EvInsert && !prog.Decl(ev.Tuple.Table).Event {
			out["delete"] = []replay.Change{{Node: ev.Node, Tuple: ev.Tuple, Tick: ev.Tick + 1}}
			break
		}
	}
	return out
}

func replaySerialized(t *testing.T, s *replay.Session, ch []replay.Change) string {
	t.Helper()
	e, g, err := s.ReplayWith(ch)
	if err != nil {
		t.Fatal(err)
	}
	return replay.SerializeForTest(g, e.CaptureState())
}

// TestSharedBaseDifferential: a counterfactual trial forked from the
// shared base run is byte-identical to a from-scratch replay that
// schedules the same changes through the counterfactual phase — whether
// Graph() built the base run first or the trial built it, and for change
// ticks inside the log and past its last tick.
func TestSharedBaseDifferential(t *testing.T) {
	for _, c := range baseRunCases(t) {
		t.Run(c.name, func(t *testing.T) {
			for chName, ch := range baseRunChanges(c.prog, c.log) {
				scratch, err := replay.FromLog(c.prog, c.log, replay.WithIncrementalReplay(false))
				if err != nil {
					t.Fatal(err)
				}
				want := replaySerialized(t, scratch, ch)
				for _, graphFirst := range []bool{true, false} {
					s, err := replay.FromLog(c.prog, c.log)
					if err != nil {
						t.Fatal(err)
					}
					if graphFirst {
						if _, _, err := s.Graph(); err != nil {
							t.Fatal(err)
						}
					}
					// Twice: the first trial may build the base run, the
					// second must fork it.
					for round := 0; round < 2; round++ {
						if got := replaySerialized(t, s, ch); got != want {
							t.Fatalf("%s graphFirst=%v round %d: shared-base trial differs from scratch:\ngot (%d bytes):\n%.2000s\nwant (%d bytes):\n%.2000s",
								chName, graphFirst, round, len(got), got, len(want), want)
						}
					}
					wantMisses := int64(1)
					if graphFirst {
						wantMisses = 0
					}
					if s.Stats.PrefixMisses != wantMisses || s.Stats.PrefixHits != 2-wantMisses {
						t.Errorf("%s graphFirst=%v: hits/misses = %d/%d, want %d/%d",
							chName, graphFirst, s.Stats.PrefixHits, s.Stats.PrefixMisses, 2-wantMisses, wantMisses)
					}
					if s.Stats.EventsReFired != 0 {
						t.Errorf("%s graphFirst=%v: EventsReFired = %d, want 0", chName, graphFirst, s.Stats.EventsReFired)
					}
				}
			}
		})
	}
}

// TestGraphSealedBaseRun pins the seal contract of the shared base run:
// the engine Graph() returns is sealed and refuses counterfactual
// scheduling, and concurrent trials forked from it leave its graph and
// state untouched.
func TestGraphSealedBaseRun(t *testing.T) {
	for _, c := range baseRunCases(t) {
		t.Run(c.name, func(t *testing.T) {
			s, err := replay.FromLog(c.prog, c.log)
			if err != nil {
				t.Fatal(err)
			}
			eng, g, err := s.Graph()
			if err != nil {
				t.Fatal(err)
			}
			if !eng.Sealed() {
				t.Fatal("Graph() returned an unsealed engine")
			}
			ev := c.log.Events()[0]
			if err := eng.ScheduleCFInsert(ev.Node, ev.Tuple, ev.Tick+1); err == nil {
				t.Fatal("ScheduleCFInsert on the base-run engine succeeded, want an error")
			}
			vertexes, state := g.NumVertexes(), replay.SerializeForTest(g, eng.CaptureState())

			var changes [][]replay.Change
			for _, ch := range baseRunChanges(c.prog, c.log) {
				changes = append(changes, ch)
			}
			const trials = 16
			var wg sync.WaitGroup
			errs := make([]error, trials)
			for i := 0; i < trials; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					cl := s.Clone()
					_, tg, err := cl.ReplayWith(changes[i%len(changes)])
					if err != nil {
						errs[i] = err
						return
					}
					if tg == g {
						errs[i] = fmt.Errorf("trial %d returned the base-run graph itself", i)
					}
				}(i)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Error(err)
				}
			}
			if got := g.NumVertexes(); got != vertexes {
				t.Errorf("base-run graph grew from %d to %d vertexes across trials", vertexes, got)
			}
			if got := replay.SerializeForTest(g, eng.CaptureState()); got != state {
				t.Error("base-run graph or state changed across concurrent trials")
			}
		})
	}
}

// backboneTrees extracts the reference arrival and the bad packet's drop
// from a graph of the backbone's execution.
func backboneTrees(t *testing.T, bb *stanford.Backbone, g *provenance.Graph) (good, bad *provenance.Tree) {
	t.Helper()
	gv := g.LastAppear(bb.Zone2Hosts, bb.GoodHeader.Tuple())
	bv := g.LastAppear(bb.DropNode, bb.BadHeader.Tuple())
	if gv == nil || bv == nil {
		t.Fatal("diagnostic packets missing from the provenance graph")
	}
	return g.Tree(gv.ID), g.Tree(bv.ID)
}

// TestDiagnoseForksGraphBaseRun is the regression guard for evaluating
// the base run twice per query: after Graph() has built it, the
// diagnosis's trials must fork it (hits) and never build a second full
// run (misses).
func TestDiagnoseForksGraphBaseRun(t *testing.T) {
	bb := smallBackbone(t)
	live := bb.Net.Session()
	s, err := replay.FromLog(live.Program(), live.Log())
	if err != nil {
		t.Fatal(err)
	}
	_, g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	good, bad := backboneTrees(t, bb, g)
	world, err := core.NewWorld(s)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Stats
	res, err := core.Diagnose(context.Background(), good, bad, world, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changes) != 1 || !bb.IsFaultChange(res.Changes[0]) {
		t.Fatalf("Δ = %v, want the faulty entry's deletion", res.Changes)
	}
	if misses := s.Stats.PrefixMisses - before.PrefixMisses; misses != 0 {
		t.Errorf("Diagnose built %d base runs, want 0 (Graph() already built it)", misses)
	}
	if hits := s.Stats.PrefixHits - before.PrefixHits; hits != 1 {
		t.Errorf("Diagnose forked the base run %d times, want 1", hits)
	}
}
