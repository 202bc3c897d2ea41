package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/ndlog"
	"repro/internal/replay"
	"repro/internal/scenarios"
	"repro/internal/sdn"
	"repro/internal/server"
)

// table1RootCauses are the root causes of the eight Table 1 scenarios
// (§6.2), written from the scenarios' descriptions: the change Δ must
// list, in order, without its injection tick.
func table1RootCauses() map[string][]string {
	anyPfx := sdn.Any
	intent := func(prio int64, src string, dst ndlog.Prefix, host string) string {
		return ndlog.NewTuple("intent", ndlog.Int(prio), ndlog.MustParsePrefix(src), dst, ndlog.Str(host)).String()
	}
	static := func(prio int64, src string, nxt string) string {
		return ndlog.NewTuple("staticEntry", ndlog.Int(prio), ndlog.MustParsePrefix(src), anyPfx, ndlog.Str(nxt)).String()
	}
	reduces := ndlog.NewTuple("jobConfig", ndlog.Str(mapreduce.ConfigReduces), ndlog.Int(4)).String()
	mapper := ndlog.NewTuple("mapperCode", ndlog.Str("wordcount-mapper"), mapreduce.GoodMapper).String()
	return map[string][]string{
		// The /24 typo is fixed by installing the intended /23 policy.
		"SDN1": {"insert " + intent(10, "4.3.2.0/23", anyPfx, "web1") + " on controller"},
		// The second app's overlapping scrubber policy is removed.
		"SDN2": {"delete " + intent(20, "9.9.0.0/16", anyPfx, "scrubber") + " on controller"},
		// The expired video intent is reinstated.
		"SDN3": {"insert " + intent(10, "7.7.0.0/16", anyPfx, "video1") + " on controller"},
		// Both hijacking entries go, s2's in the first round, s6's in the second.
		"SDN4": {
			"delete " + static(20, "4.3.3.0/24", "s3") + " on s2",
			"delete " + static(20, "4.3.3.0/24", "s5") + " on s6",
		},
		// The reducer count goes back to the reference's 4.
		"MR1-D": {"insert " + reduces + " on master"},
		"MR1-I": {"insert " + reduces + " on master"},
		// The mapper goes back to the reference bytecode.
		"MR2-D": {"insert " + mapper + " on master"},
		"MR2-I": {"insert " + mapper + " on master"},
	}
}

// sdnScenarios are the Table 1 scenarios backed by a replay session the
// server can persist.
var sdnScenarios = []string{"SDN1", "SDN2", "SDN3", "SDN4"}

// table1Serve is the in-process diffprovd handler answering diagnosis
// requests for the eight Table 1 scenarios from two closed-loop clients,
// every scenario warmed first: the warm, cache-hit serving path.
type table1Serve struct {
	r       *run
	workers int
	prog    *ndlog.Program
	logs    []*replay.Log // the SDN scenarios' recorded logs
	h       http.Handler
	order   []string     // the seeded request sequence, cycled
	shed    atomic.Int64 // 429 responses
}

func newTable1Serve(r *run) workload {
	w := &table1Serve{r: r, workers: 2, prog: sdn.Program()}
	rng := rand.New(rand.NewSource(r.opt.seed))
	// Each cycle requests all eight scenarios, the SDN ones twice, in a
	// fresh seeded order. SDN diagnoses take about 1 ms and MR ones 5-10
	// ms; with an even mix the median would fall in the gap between the
	// two modes and jump from run to run.
	cycle := append(append([]string(nil), scenarios.Names()...), sdnScenarios...)
	for c := 0; c < 64; c++ {
		for _, i := range rng.Perm(len(cycle)) {
			w.order = append(w.order, cycle[i])
		}
	}
	return w
}

func (w *table1Serve) setupReps() int { return 5 }

func (w *table1Serve) clients() int { return 2 }

// Each client's request runs on its own thread.
func (w *table1Serve) width() int { return w.clients() }

func (w *table1Serve) params() map[string]any {
	return map[string]any{
		"scale":              "Small",
		"server_workers":     w.workers,
		"clients":            "2, closed loop, in-process handler calls",
		"request":            "POST /scenarios/{name}/diagnose",
		"first_cycle":        w.order[:12],
		"store_flush_policy": flushPolicy,
	}
}

// setup records the session-backed scenarios for the recordings,
// starts the server and warms every scenario with one diagnosis.
func (w *table1Serve) setup(rep int) error {
	w.logs = w.logs[:0]
	for _, name := range sdnScenarios {
		sc, err := scenarios.Build(name, scenarios.Small)
		if err != nil {
			return fmt.Errorf("recording %s: %w", name, err)
		}
		if err := checkEngines(w.r, sc.BadSession.Live()); err != nil {
			return err
		}
		w.logs = append(w.logs, sc.BadSession.Log())
	}
	w.h = server.New(scenarios.Small, server.WithWorkers(w.workers)).Handler()
	for _, name := range scenarios.Names() {
		if _, err := w.request(nil, 0, -1, name); err != nil {
			return fmt.Errorf("warming %s: %w", name, err)
		}
	}
	return nil
}

// record re-records the four SDN scenarios' logs, each into its own store
// under dir, and reopens them.
func (w *table1Serve) record(tr *tracer, dir string) (int, time.Duration, time.Duration, error) {
	var events int
	var rec, rcv time.Duration
	for i, name := range sdnScenarios {
		n, rc, rv, err := recordAndReopen(w.r, tr, w.prog, w.logs[i], filepath.Join(dir, name))
		if err != nil {
			return 0, 0, 0, fmt.Errorf("%s: %w", name, err)
		}
		events, rec, rcv = events+n, rec+rc, rcv+rv
	}
	return events, rec, rcv, nil
}

func (w *table1Serve) op(tr *tracer, q int) error {
	root := tr.start("request", "bench", 0, q)
	defer tr.end(root)
	// Both clients draw query ids from one counter, so request q takes
	// its scenario from one shared seeded sequence.
	d, err := w.request(tr, root, q, w.order[q%len(w.order)])
	if err != nil {
		return err
	}
	w.r.sample("turnaround_ms", float64(d.ElapsedNs)/1e6)
	return nil
}

// diagnosisResponse is the part of the server's diagnosis JSON the
// benchmark reads.
type diagnosisResponse struct {
	Changes            []string `json:"changes"`
	Rounds             int      `json:"rounds"`
	ElapsedNs          int64    `json:"elapsedNs"`
	UpdateTreeNs       int64    `json:"treeUpdatesNs"`
	Replays            int      `json:"replays"`
	ReplayNs           int64    `json:"replayNs"`
	PrefixHits         int64    `json:"prefixHits"`
	PrefixMisses       int64    `json:"prefixMisses"`
	ForkNs             int64    `json:"forkNs"`
	EventsSkipped      int64    `json:"eventsSkipped"`
	EventsReFired      int64    `json:"eventsReFired"`
	DirtyTables        int64    `json:"dirtyTables"`
	FingerprintHits    int64    `json:"fingerprintHits"`
	CandidatesDeduped  int64    `json:"candidatesDeduped"`
	ParallelCandidates int64    `json:"parallelCandidates"`
	CandidatesSliced   int64    `json:"candidatesSliced"`
}

// tickSuffix is the injection tick a change's text ends with.
var tickSuffix = regexp.MustCompile(` at t=-?\d+$`)

// request POSTs one diagnosis and applies the table1-serve gate: status
// 200 and the scenario's hand-written root cause.
func (w *table1Serve) request(tr *tracer, parent, q int, name string) (*diagnosisResponse, error) {
	r := w.r
	sp := tr.start("server.POST diagnose", "server", parent, q)
	t0 := time.Now()
	rec := httptest.NewRecorder()
	w.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/scenarios/"+name+"/diagnose", nil))
	client := time.Since(t0)
	tr.end(sp)
	if rec.Code == http.StatusTooManyRequests {
		w.shed.Add(1)
	}
	if rec.Code != http.StatusOK {
		return nil, gatef("%s: status %d: %s", name, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	var d diagnosisResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		return nil, fmt.Errorf("%s: decoding the response: %w", name, err)
	}
	want := r.expect.table1[name]
	got := make([]string, len(d.Changes))
	for i, c := range d.Changes {
		got[i] = tickSuffix.ReplaceAllString(c, "")
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		return nil, gatef("%s: Δ = %q, want %q", name, got, want)
	}
	if tr != nil {
		elapsed := time.Duration(d.ElapsedNs)
		diag := tr.derived("core.Diagnose", "core", sp, elapsed)
		tr.derived("replay.trials", "replay", diag, time.Duration(d.ReplayNs))
		r.addLayer("server.overhead_ms", ms(client-elapsed))
		if strings.HasPrefix(name, "MR") {
			r.addLayer("mapreduce.diagnose_ms", ms(elapsed))
		} else {
			r.addLayer("sdn.diagnose_ms", ms(elapsed))
		}
		r.addLayer("core.diagnose_ms", ms(elapsed))
		r.addLayer("core.updatetree_ms", float64(d.UpdateTreeNs)/1e6)
		r.addLayer("core.rounds", float64(d.Rounds))
		r.addLayer("core.changes", float64(len(d.Changes)))
		r.addLayer("core.fingerprint_hits", float64(d.FingerprintHits))
		r.addLayer("core.candidates_deduped", float64(d.CandidatesDeduped))
		r.addLayer("core.parallel_candidates", float64(d.ParallelCandidates))
		r.addLayer("core.candidates_sliced", float64(d.CandidatesSliced))
		r.addLayer("replay.trials", float64(d.Replays))
		r.addLayer("replay.time_ms", float64(d.ReplayNs)/1e6)
		r.addLayer("replay.prefix_hits", float64(d.PrefixHits))
		r.addLayer("replay.prefix_misses", float64(d.PrefixMisses))
		r.addLayer("replay.fork_ms", float64(d.ForkNs)/1e6)
		r.addLayer("replay.events_skipped", float64(d.EventsSkipped))
		r.addLayer("replay.events_refired", float64(d.EventsReFired))
		r.addLayer("replay.dirty_tables", float64(d.DirtyTables))
	}
	return &d, nil
}

func (w *table1Serve) probe() error {
	w.r.addLayer("server.shed", float64(w.shed.Load()))
	var recs []recording
	for _, name := range sdnScenarios {
		recs = append(recs, recording{w.prog, filepath.Join(w.r.lastStore, name)})
	}
	return probeLayers(w.r, recs...)
}
