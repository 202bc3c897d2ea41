package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/replay"
	"repro/internal/stanford"
)

// stanfordCold is the §6.7 Stanford backbone diagnosed cold: every query
// re-drives the recorded log into a fresh session and pays the base run,
// the provenance replay and a counterfactual replay that misses the
// prefix cache.
type stanfordCold struct {
	r       *run
	entries int

	bb   *stanford.Backbone
	prog *ndlog.Program
	log  *replay.Log // the recorded base events
}

func newStanfordCold(r *run) workload {
	w := &stanfordCold{r: r, entries: 1000}
	if r.opt.smoke {
		w.entries = 100
	}
	return w
}

func (w *stanfordCold) setupReps() int { return 3 }

func (w *stanfordCold) clients() int { return 1 }

func (w *stanfordCold) width() int { return 1 }

func (w *stanfordCold) params() map[string]any {
	p := map[string]any{
		"forwarding_entries": w.entries,
		"stanford_seed":      w.r.opt.seed,
		"query":              "replay.FromLog -> Session.Graph -> trees -> core.NewWorld -> core.Diagnose(Options{})",
		"store_flush_policy": flushPolicy,
	}
	if w.log != nil {
		p["events"] = w.log.Len()
	}
	return p
}

// setup records the backbone live and warms the query path once.
func (w *stanfordCold) setup(rep int) error {
	tr := w.r.tr
	sp := tr.start("stanford.Build", "scenarios", 0, -1)
	bb, err := stanford.Build(stanford.Config{Seed: w.r.opt.seed, ForwardingEntries: w.entries})
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("building the backbone: %w", err)
	}
	sess := bb.Net.Session()
	if err := checkEngines(w.r, sess.Live()); err != nil {
		return err
	}
	w.bb, w.prog, w.log = bb, sess.Program(), sess.Log()
	// One unmeasured query warms code paths and the allocator.
	_, err = w.query(nil, -1)
	return err
}

// record re-records the backbone's logged events into a store through a
// storage-backed session and reopens it.
func (w *stanfordCold) record(tr *tracer, dir string) (int, time.Duration, time.Duration, error) {
	return recordAndReopen(w.r, tr, w.prog, w.log, dir)
}

func (w *stanfordCold) op(tr *tracer, q int) error {
	turnaround, err := w.query(tr, q)
	if err != nil {
		return err
	}
	w.r.sample("turnaround_ms", ms(turnaround))
	return nil
}

// query re-drives the recorded log into a fresh session and diagnoses
// the forwarding error on it, returning the turnaround from Graph to Δ.
func (w *stanfordCold) query(tr *tracer, q int) (time.Duration, error) {
	r := w.r
	root := tr.start("query", "bench", 0, q)
	defer tr.end(root)

	// The re-drive is the base run: the live engine evaluating the log.
	sp := tr.start("replay.FromLog", "ndlog", root, q)
	s, err := replay.FromLog(w.prog, w.log)
	tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("re-driving the recorded log: %w", err)
	}

	tTurn := time.Now()
	sp = tr.start("replay.Session.Graph", "provenance", root, q)
	t1 := time.Now()
	eng, g, err := s.Graph()
	graphDur := time.Since(t1)
	tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("provenance graph: %w", err)
	}
	sp = tr.start("provenance.Graph.Tree", "provenance", root, q)
	t2 := time.Now()
	good, bad, err := backboneTrees(w.bb, g)
	treeDur := time.Since(t2)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = tr.start("core.NewWorld", "core", root, q)
	world, err := core.NewWorld(s)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	res, err := diagnose(r, tr, root, q, s, good, bad, world, core.Options{})
	turnaround := time.Since(tTurn)
	if err != nil {
		return 0, err
	}
	if tr != nil {
		r.addLayer("provenance.graph_ms", ms(graphDur))
		r.addLayer("provenance.vertices", float64(g.NumVertexes()))
		r.addLayer("provenance.tree_ms", ms(treeDur))
		r.addLayer("provenance.tree_vertices", float64(good.Size()+bad.Size()))
	}
	if err := checkEngines(r, s.Live(), eng); err != nil {
		return 0, err
	}
	return turnaround, w.check(res)
}

// check is the stanford-cold gate: Δ is exactly the deletion of the
// misconfigured entry on S2.
func (w *stanfordCold) check(res *core.Result) error {
	if len(res.Changes) != 1 {
		return gatef("Δ = %v, want exactly the faulty entry's deletion", res.Changes)
	}
	c := res.Changes[0]
	if !w.bb.IsFaultChange(c) || c.Node != w.r.expect.stanfordFaultNode {
		return gatef("Δ = %v, want deletion of %s on %s", c, w.bb.FaultEntry, w.r.expect.stanfordFaultNode)
	}
	return nil
}

// backboneTrees extracts the reference arrival and the bad packet's drop
// from a graph of the backbone's execution.
func backboneTrees(bb *stanford.Backbone, g *provenance.Graph) (good, bad *provenance.Tree, err error) {
	gv := g.LastAppear(bb.Zone2Hosts, bb.GoodHeader.Tuple())
	bv := g.LastAppear(bb.DropNode, bb.BadHeader.Tuple())
	if gv == nil || bv == nil {
		return nil, nil, fmt.Errorf("diagnostic packets missing from the provenance graph")
	}
	return g.Tree(gv.ID), g.Tree(bv.ID), nil
}

func (w *stanfordCold) probe() error {
	return probeLayers(w.r, recording{w.prog, w.r.lastStore})
}
