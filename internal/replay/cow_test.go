package replay_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ndlog"
	"repro/internal/replay"
	"repro/internal/scenarios"
)

// TestCoWDifferential replays every Table 1 scenario's captured bad
// execution twice — copy-on-write prefix forks on and off — and requires
// the two runs to be byte-identical: the same provenance graph, the same
// final state, the same diagnosis. Incremental replay is on in both arms,
// so the only difference is how the cached prefix is forked: shared
// structure with clone-on-first-write versus a full deep copy. This is
// the ablation arm the CoW design argues against (see DESIGN.md §15).
func TestCoWDifferential(t *testing.T) {
	for _, name := range scenarios.Names() {
		t.Run(name, func(t *testing.T) {
			s, err := scenarios.Build(name, scenarios.Small)
			if err != nil {
				t.Fatal(err)
			}
			if s.BadSession == nil {
				t.Skipf("%s is imperative (no replay session)", name)
			}
			prog := s.BadSession.Program()
			log := s.BadSession.Log()

			events := log.Events()
			last := events[len(events)-1]
			directChange := []replay.Change{{Insert: true, Node: last.Node, Tuple: last.Tuple, Tick: last.Tick + 1}}

			type run struct {
				graph    string
				state    string
				direct   string
				diagnose string
				rounds   int
			}
			runs := map[bool]run{}
			for _, cow := range []bool{true, false} {
				sess, err := replay.FromLog(prog, log,
					replay.WithIncrementalReplay(true),
					replay.WithCopyOnWriteForks(cow),
					replay.WithCheckpointEvery(4))
				if err != nil {
					t.Fatal(err)
				}
				de, dg, err := sess.ReplayWith(directChange)
				if err != nil {
					t.Fatal(err)
				}
				direct := forkSerializeGraph(dg) + forkSerializeSnapshot(de.CaptureState())

				eng, g, err := sess.Graph()
				if err != nil {
					t.Fatal(err)
				}
				badTree := g.Tree(s.Bad.Vertex.ID)
				if badTree == nil {
					t.Fatalf("bad vertex %d missing from replayed graph", s.Bad.Vertex.ID)
				}
				world, err := core.NewWorld(sess)
				if err != nil {
					t.Fatal(err)
				}
				res, err := core.Diagnose(context.Background(), s.Good, badTree, world, core.Options{})
				if err != nil {
					t.Fatalf("diagnose (cow=%v): %v", cow, err)
				}
				if s.Check != nil {
					if err := s.Check(res); err != nil {
						t.Fatalf("check (cow=%v): %v", cow, err)
					}
				}
				var ch []string
				for _, c := range res.Changes {
					ch = append(ch, c.String())
				}
				runs[cow] = run{
					graph:    forkSerializeGraph(g),
					state:    forkSerializeSnapshot(eng.CaptureState()),
					direct:   direct,
					diagnose: strings.Join(ch, "\n"),
					rounds:   res.Iterations,
				}
			}
			on, off := runs[true], runs[false]
			if on.direct != off.direct {
				t.Errorf("direct ReplayWith differs between CoW on and off:\non (%d bytes):\n%.2000s\noff (%d bytes):\n%.2000s",
					len(on.direct), on.direct, len(off.direct), off.direct)
			}
			if on.graph != off.graph {
				t.Errorf("provenance graphs differ:\non (%d bytes):\n%.2000s\noff (%d bytes):\n%.2000s",
					len(on.graph), on.graph, len(off.graph), off.graph)
			}
			if on.state != off.state {
				t.Errorf("final states differ:\non:\n%s\noff:\n%s", on.state, off.state)
			}
			if on.diagnose != off.diagnose {
				t.Errorf("diagnoses differ:\non:\n%s\noff:\n%s", on.diagnose, off.diagnose)
			}
			if on.rounds != off.rounds {
				t.Errorf("iteration counts differ: on=%d off=%d", on.rounds, off.rounds)
			}
		})
	}
}

// TestPrefixCacheSizeOption pins WithPrefixCacheSize: the configured
// capacity must survive Clone, and values below 1 clamp to 1 so the
// cache can always hold the anchor being replayed.
func TestPrefixCacheSizeOption(t *testing.T) {
	prog := ndlog.MustParse(`
table edge/2 base mutable;
table probe/1 event base;
table hit/2 event;
rule j hit(S, D) :- probe(@r, S), edge(@r, S, D).
`)
	sess := replay.NewSession(prog,
		replay.WithIncrementalReplay(true),
		replay.WithCheckpointEvery(8),
		replay.WithPrefixCacheSize(1),
		// Delta replay forks the shared base run and never reaches the
		// prefix cache, whose alternating anchors this test needs.
		replay.WithDeltaReplay(false))
	if err := sess.Insert("r", ndlog.NewTuple("edge", ndlog.Int(1), ndlog.Int(2)), 0); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 64; i++ {
		if err := sess.Insert("r", ndlog.NewTuple("probe", ndlog.Int(int64(i%8))), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	// Replay against two different anchors: with capacity 1 the second
	// anchor evicts the first, so coming back to it is a miss.
	change := func(tick int64) []replay.Change {
		return []replay.Change{{Insert: true, Node: "r", Tuple: ndlog.NewTuple("probe", ndlog.Int(1)), Tick: tick}}
	}
	for _, tick := range []int64{20, 60, 20} {
		if _, _, err := sess.ReplayWith(change(tick)); err != nil {
			t.Fatal(err)
		}
	}
	if sess.Stats.PrefixMisses < 3 {
		t.Errorf("PrefixMisses = %d with cache size 1 across alternating anchors, want >= 3", sess.Stats.PrefixMisses)
	}

	// The clone inherits the configured capacity (a fresh cache, same
	// bound) and still produces identical replays.
	clone := sess.Clone()
	if _, _, err := clone.ReplayWith(change(20)); err != nil {
		t.Fatal(err)
	}
}
