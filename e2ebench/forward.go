package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/ndlog"
	"repro/internal/replay"
)

// forwardProgram is the forwarding model of the store's cold-start
// tests: packets follow the highest-priority matching flow entry.
const forwardProgram = `
table flowEntry/3 base mutable;
table packet/1 event base;

rule fw packet(@Nxt, Dst) :-
    packet(@Sw, Dst),
    flowEntry(@Sw, Prio, M, Nxt),
    matches(Dst, M),
    argmax Prio.
`

// forwardRecord records a seeded packet stream through two flow entries
// into a storage-backed session, closes it, and cold-starts a session
// from the store. It exercises live recording, the store and recovery;
// it diagnoses nothing.
type forwardRecord struct {
	r         *run
	packets   int
	ckptEvery int64
	prog      *ndlog.Program

	// Inputs, generated in setup: a default route to s2, a seeded /8
	// routed to s3 at higher priority, and the packet destinations.
	routes  []ndlog.Tuple
	special ndlog.Prefix
	dsts    []ndlog.IP

	last *replay.Session // the last recovered session, held for the heap reading
	dir  string          // its store, kept for the traced run's probe
}

func newForwardRecord(r *run) workload {
	w := &forwardRecord{r: r, packets: 12000, ckptEvery: 3000, prog: ndlog.MustParse(forwardProgram)}
	if r.opt.smoke {
		w.packets, w.ckptEvery = 3000, 1000
	}
	return w
}

func (w *forwardRecord) setupReps() int { return 3 }

func (w *forwardRecord) clients() int { return 1 }

func (w *forwardRecord) width() int { return 1 }

func (w *forwardRecord) params() map[string]any {
	return map[string]any{
		"packets":            w.packets,
		"events":             w.packets + len(w.routes),
		"checkpoint_every":   w.ckptEvery,
		"special_route":      w.special.String(),
		"operation":          "NewSession(WithStorage) -> Insert x events -> Run -> CloseStorage -> replay.Open -> verify",
		"store_flush_policy": flushPolicy,
	}
}

// setup generates the inputs and runs one unmeasured pass at a tenth of
// the size to warm code paths and the allocator.
func (w *forwardRecord) setup(rep int) error {
	rng := rand.New(rand.NewSource(w.r.opt.seed))
	w.special = ndlog.Prefix{Addr: ndlog.IP(uint32(1+rng.Intn(223)) << 24), Bits: 8}
	w.routes = []ndlog.Tuple{
		ndlog.NewTuple("flowEntry", ndlog.Int(1), ndlog.MustParsePrefix("0.0.0.0/0"), ndlog.Str("s2")),
		ndlog.NewTuple("flowEntry", ndlog.Int(2), w.special, ndlog.Str("s3")),
	}
	w.dsts = make([]ndlog.IP, w.packets)
	for i := range w.dsts {
		// Every fourth packet goes to the special route's /8.
		if rng.Intn(4) == 0 {
			w.dsts[i] = w.special.Addr | ndlog.IP(rng.Uint32()&0x00ffffff)
		} else {
			w.dsts[i] = ndlog.IP(rng.Uint32())
		}
	}
	return w.pass(nil, -1, filepath.Join(w.r.work, fmt.Sprintf("forward-warm-%d", rep)), w.packets/10, w.ckptEvery/10)
}

func (w *forwardRecord) op(tr *tracer, q int) error {
	if w.last != nil {
		w.last = nil
		if err := os.RemoveAll(w.dir); err != nil {
			return err
		}
	}
	return w.pass(tr, q, filepath.Join(w.r.work, fmt.Sprintf("forward-%d", q)), w.packets, w.ckptEvery)
}

// nextHop is where the model must forward a packet to dst.
func (w *forwardRecord) nextHop(dst ndlog.IP) string {
	if dst.Mask(w.special.Bits) == w.special.Addr {
		return "s3"
	}
	return "s2"
}

// pass records n packets into a fresh store at dir with a checkpoint
// every ckptEvery ticks, reopens it and verifies the recovered session.
func (w *forwardRecord) pass(tr *tracer, q int, dir string, n int, ckptEvery int64) error {
	r := w.r
	root := tr.start("pass", "bench", 0, q)
	defer tr.end(root)
	opt := replay.WithCheckpointEvery(ckptEvery)

	t0 := time.Now()
	s := replay.NewSession(w.prog, opt, replay.WithStorage(dir))
	sp := tr.start("replay.Session.Insert", "store", root, q)
	for _, rt := range w.routes {
		if err := s.Insert("s1", rt, 0); err != nil {
			return err
		}
	}
	for i, dst := range w.dsts[:n] {
		if err := s.Insert("s1", ndlog.NewTuple("packet", dst), int64(i+1)); err != nil {
			return err
		}
	}
	appendDur := time.Since(t0)
	tr.end(sp)
	sp = tr.start("replay.Session.Run", "ndlog", root, q)
	err := s.Run()
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("recording: %w", err)
	}
	recordDur := time.Since(t0)
	wantLen := s.Log().Len() + r.expect.forwardExtraEvents
	var wantTicks []int64
	for _, ck := range s.Checkpoints() {
		wantTicks = append(wantTicks, ck.Tick)
	}
	if err := checkEngines(r, s.Live()); err != nil {
		return err
	}
	sp = tr.start("replay.Session.CloseStorage", "store", root, q)
	err = s.CloseStorage()
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("closing the recording: %w", err)
	}

	sp = tr.start("replay.Open", "replay", root, q)
	t1 := time.Now()
	c, err := replay.Open(w.prog, dir, opt)
	reopen := time.Since(t1)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("cold start: %w", err)
	}
	turnaround := time.Since(t0)
	defer c.CloseStorage()

	// The forward-record gate: the recovered log and checkpoints are the
	// recorded ones, and the last packet was forwarded where the routes
	// send it.
	if got := c.Log().Len(); got != wantLen {
		return gatef("recovered %d events, recorded %d", got, wantLen)
	}
	got := c.Checkpoints()
	if len(got) != len(wantTicks) || len(got) < 2 {
		return gatef("recovered %d checkpoints, recorded %d (at least 2 expected)", len(got), len(wantTicks))
	}
	for i := range got {
		if got[i].Tick != wantTicks[i] {
			return gatef("checkpoint %d at tick %d, recorded at %d", i, got[i].Tick, wantTicks[i])
		}
	}
	lastDst := w.dsts[n-1]
	if !c.Live().Exists(w.nextHop(lastDst), ndlog.NewTuple("packet", lastDst), c.Live().Now()) {
		return gatef("the last packet (to %v) was not forwarded to %s", lastDst, w.nextHop(lastDst))
	}
	if err := checkEngines(r, c.Live()); err != nil {
		return err
	}

	bytes, segs, err := dirSize(dir)
	if err != nil {
		return err
	}
	if q < 0 {
		return os.RemoveAll(dir)
	}
	events := float64(c.Log().Len())
	r.sample("record_events_per_s", events/recordDur.Seconds())
	r.sample("recover_s", reopen.Seconds())
	r.sample("turnaround_ms", ms(turnaround))
	r.logBytesPerEvent = float64(bytes) / events
	if tr != nil {
		r.addLayer("store.append_ms", ms(appendDur))
		r.addLayer("store.bytes", float64(bytes))
		r.addLayer("store.segments", float64(segs))
		addReadStats(r, c.Storage().ReadStats())
	}
	w.last, w.dir = c, dir
	return nil
}

func (w *forwardRecord) probe() error {
	return probeLayers(w.r, recording{w.prog, w.dir})
}
