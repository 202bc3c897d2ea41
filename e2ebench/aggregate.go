package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/replay"
)

// aggregateProgram counts contributor reports per collector.
const aggregateProgram = `
table report/1 event base mutable;
table tally/1;
rule t tally(@C, N) :- report(@C, S), N := count().
`

// aggregateWarm is the 200-contributor count aggregate, diagnosed warm:
// collector B misses 16 of the reports collector A counted, and every
// query re-diagnoses a clone of the already-diagnosed session, the
// repeated-query path the server takes.
type aggregateWarm struct {
	r            *run
	contributors int
	missing      []int // seeded: the reports B never saw, ascending
	ckptEvery    int64
	prog         *ndlog.Program

	sess      *replay.Session // the recorded, diagnosed execution
	good, bad *provenance.Tree
}

func newAggregateWarm(r *run) workload {
	w := &aggregateWarm{r: r, contributors: 200, ckptEvery: 48, prog: ndlog.MustParse(aggregateProgram)}
	nMissing := 16
	if r.opt.smoke {
		w.contributors, nMissing = 40, 4
	}
	rng := rand.New(rand.NewSource(r.opt.seed))
	w.missing = rng.Perm(w.contributors)[:nMissing]
	sort.Ints(w.missing)
	return w
}

func (w *aggregateWarm) setupReps() int { return 9 }

func (w *aggregateWarm) clients() int { return 1 }

// Diagnose fans candidates out over the library-default parallelism,
// one worker per GOMAXPROCS.
func (w *aggregateWarm) width() int { return runtime.GOMAXPROCS(0) }

func (w *aggregateWarm) options() core.Options { return core.Options{Minimize: true} }

func (w *aggregateWarm) params() map[string]any {
	return map[string]any{
		"contributors":       w.contributors,
		"missing_reports":    w.missing,
		"checkpoint_every":   w.ckptEvery,
		"query":              "Session.Clone -> core.NewWorld -> core.Diagnose(Options{Minimize: true}) after one cold diagnosis",
		"parallelism":        "library default (GOMAXPROCS)",
		"store_flush_policy": flushPolicy,
	}
}

// setup records the reports and runs one cold diagnosis, which fills the
// prefix cache the measured queries share.
func (w *aggregateWarm) setup(rep int) error {
	r, tr := w.r, w.r.tr
	isMissing := map[int]bool{}
	for _, m := range w.missing {
		isMissing[m] = true
	}
	sess := replay.NewSession(w.prog, replay.WithCheckpointEvery(w.ckptEvery))
	tick := int64(0)
	for i := 0; i < w.contributors; i++ {
		if err := sess.Insert("A", report(i), tick); err != nil {
			return err
		}
		tick++
		if !isMissing[i] {
			if err := sess.Insert("B", report(i), tick); err != nil {
				return err
			}
			tick++
		}
	}
	if err := sess.Run(); err != nil {
		return fmt.Errorf("recording: %w", err)
	}

	sp := tr.start("replay.Session.Graph", "provenance", 0, -1)
	t0 := time.Now()
	eng, g, err := sess.Graph()
	graphDur := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("provenance graph: %w", err)
	}
	t1 := time.Now()
	goodV := g.LastAppear("A", ndlog.NewTuple("tally", ndlog.Int(int64(w.contributors))))
	badV := g.LastAppear("B", ndlog.NewTuple("tally", ndlog.Int(int64(w.contributors-len(w.missing)))))
	if goodV == nil || badV == nil {
		return fmt.Errorf("tally tuples missing from the provenance graph")
	}
	w.good, w.bad = g.Tree(goodV.ID), g.Tree(badV.ID)
	if tr != nil {
		r.addLayer("provenance.graph_ms", ms(graphDur))
		r.addLayer("provenance.vertices", float64(g.NumVertexes()))
		r.addLayer("provenance.tree_ms", ms(time.Since(t1)))
		r.addLayer("provenance.tree_vertices", float64(w.good.Size()+w.bad.Size()))
	}
	if err := checkEngines(r, sess.Live(), eng); err != nil {
		return err
	}
	w.sess = sess
	world, err := core.NewWorld(sess)
	if err != nil {
		return err
	}
	res, err := diagnose(r, nil, 0, -1, sess, w.good, w.bad, world, w.options())
	if err != nil {
		return err
	}
	return w.check(res)
}

// record re-records the reports into a store and reopens it. It takes no
// checkpoints: each would fsync the store, and 384 events would then time
// eight fsyncs rather than the recording.
func (w *aggregateWarm) record(tr *tracer, dir string) (int, time.Duration, time.Duration, error) {
	return recordAndReopen(w.r, tr, w.prog, w.sess.Log(), dir)
}

func report(i int) ndlog.Tuple { return ndlog.NewTuple("report", ndlog.Int(int64(i))) }

func (w *aggregateWarm) op(tr *tracer, q int) error {
	r := w.r
	root := tr.start("query", "bench", 0, q)
	defer tr.end(root)
	t0 := time.Now()
	sp := tr.start("replay.Session.Clone", "replay", root, q)
	cl := w.sess.Clone()
	tr.end(sp)
	sp = tr.start("core.NewWorld", "core", root, q)
	world, err := core.NewWorld(cl)
	tr.end(sp)
	if err != nil {
		return err
	}
	res, err := diagnose(r, tr, root, q, cl, w.good, w.bad, world, w.options())
	if err != nil {
		return err
	}
	r.sample("turnaround_ms", ms(time.Since(t0)))
	return w.check(res)
}

// check is the aggregate-warm gate: Δ inserts exactly the seeded missing
// reports at B, compared as a set.
func (w *aggregateWarm) check(res *core.Result) error {
	want := map[string]bool{}
	for _, i := range append(append([]int(nil), w.missing...), w.r.expect.aggregateExtra...) {
		want[report(i).String()] = true
	}
	got := map[string]bool{}
	for _, c := range res.Changes {
		if !c.Insert || c.Node != "B" || c.Tuple.Table != "report" {
			return gatef("Δ contains %v, want only report inserts at B", c)
		}
		got[c.Tuple.String()] = true
	}
	if len(got) != len(res.Changes) || len(got) != len(want) {
		return gatef("Δ has %d changes (%d distinct), want the %d missing reports", len(res.Changes), len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			return gatef("Δ lacks the insert of %s at B", k)
		}
	}
	return nil
}

func (w *aggregateWarm) probe() error {
	return probeLayers(w.r, recording{w.prog, w.r.lastStore})
}
