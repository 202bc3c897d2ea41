// Command e2ebench is the repository's end-to-end DiffProv benchmark. It
// drives one seeded workload through the public functions of the
// recording, storage, replay, provenance, reasoning and serving layers,
// checks every diagnosis against a known answer, and prints its metrics.
//
//	e2ebench -workload stanford-cold -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics; with -trace 1 it holds the per-layer metrics of
// a traced run, whose spans are written under -out. README.md in this
// directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool   // small sizes, for the benchmark's own tests
	out      string // directory for scratch stores and span files
}

func parseFlags(args []string) (options, error) {
	var o options
	var traceFlag int
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the measured window")
	fs.IntVar(&traceFlag, "trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for scratch stores and span files")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("-seconds must be positive")
	}
	if traceFlag != 0 && traceFlag != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1")
	}
	o.trace = traceFlag == 1
	return o, nil
}

// workload is one seeded input set and the operation the benchmark
// repeats over it.
type workload interface {
	// setup builds the state the measured operations read; the runner
	// calls it several times and keeps the state of the last call.
	setup(rep int) error
	// op performs one measured operation with query id q. Spans go to tr,
	// which is nil for untraced operations.
	op(tr *tracer, q int) error
	// clients is the number of closed-loop callers running op at once.
	clients() int
	// width is how many threads the operations keep busy at once; the
	// calibration kernel runs as wide.
	width() int
	// setupReps is how many times the runner sets the workload up;
	// setup_s is the median, and set-up samples of other metrics pool.
	setupReps() int
	// probe runs the traced run's extra layer measurements, after the
	// measured window.
	probe() error
	// params describes the workload's size parameters.
	params() map[string]any
}

// recorder is a workload whose operation does not itself record: the
// runner gives a quarter of the window to repeated recordings.
type recorder interface {
	// record records the workload's execution once more into a fresh
	// store at dir and recovers a ready-to-diagnose session from it.
	record(tr *tracer, dir string) (events int, record, reopen time.Duration, err error)
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(*run) workload{
	"stanford-cold":  newStanfordCold,
	"aggregate-warm": newAggregateWarm,
	"forward-record": newForwardRecord,
	"table1-serve":   newTable1Serve,
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// run is the state of one benchmark run.
type run struct {
	opt    options
	expect expectations
	tr     *tracer // nil in untraced runs
	work   string  // scratch directory, removed when the run ends

	mu        sync.Mutex
	samples   map[string][]float64
	bySlice   map[string][][]float64 // samples per slice of the window
	slice     int                    // the slice operations run in now; -1 in set-up
	cal       map[calKey][]float64   // calibration unit times, ms (calibrate.go)
	calState  []*calState            // the calibration kernel's working sets, one per thread
	layer     map[string]*mean
	attempted int
	failed    int
	problems  []string

	lastStore        string // the newest store a recording wrote
	recordings       int    // recordings so far
	nextOp           atomic.Int64
	logBytesPerEvent float64
	retainedHeapMB   float64
	heapInuseMB      float64
	window           time.Duration // time spent in operations
	completed        int
	sliceRPS         []float64 // operations per second in each slice
	tracedOps        int
}

// mean accumulates a per-layer metric reported as the mean of its
// observations.
type mean struct{ sum, n float64 }

func newRun(opt options, exp expectations) *run {
	r := &run{opt: opt, expect: exp, samples: map[string][]float64{},
		bySlice: map[string][][]float64{}, slice: -1, cal: map[calKey][]float64{}, layer: map[string]*mean{}}
	if opt.trace {
		r.tr = newTracer()
	}
	return r
}

// sample adds one observation of an end-to-end quantity, in the slice of
// the window it was taken in.
func (r *run) sample(name string, v float64) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], v)
	if r.slice < 0 {
		r.mu.Unlock()
		return
	}
	per := r.bySlice[name]
	for len(per) <= r.slice {
		per = append(per, nil)
	}
	per[r.slice] = append(per[r.slice], v)
	r.bySlice[name] = per
	r.mu.Unlock()
}

// addLayer adds one observation of a per-layer metric.
func (r *run) addLayer(name string, v float64) {
	r.mu.Lock()
	m := r.layer[name]
	if m == nil {
		m = &mean{}
		r.layer[name] = m
	}
	m.sum += v
	m.n++
	r.mu.Unlock()
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// fail records a failed operation: an error, a wrong answer, or a broken
// engine invariant.
func (r *run) fail(what string, err error) {
	r.mu.Lock()
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf("%s: %v", what, err))
	}
	r.mu.Unlock()
}

// errGate marks a correctness gate that rejected an answer.
var errGate = errors.New("correctness gate")

func gatef(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errGate, fmt.Sprintf(format, args...))
}

// execute performs one run and returns its result.
func execute(opt options, exp expectations) (*result, error) {
	work := filepath.Join(opt.out, "work", fmt.Sprintf("%s-%d-%d", opt.workload, opt.seed, os.Getpid()))
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	r := newRun(opt, exp)
	r.work = work
	w := workloads[opt.workload](r)
	for rep := 0; rep < w.setupReps(); rep++ {
		r.calibrate(1)
		start := time.Now()
		err := w.setup(rep)
		r.sample("setup_s", time.Since(start).Seconds())
		if err != nil {
			r.attempted++
			r.fail("setup", err)
			return r.result(w), nil
		}
	}
	r.calibrate(1)
	r.measureWindow(w)
	r.measureHeap()
	if r.tr != nil {
		if err := w.probe(); err != nil {
			r.fail("probe", err)
		}
	}
	runtime.KeepAlive(w)
	if r.tr != nil {
		path := filepath.Join(opt.out, fmt.Sprintf("spans-%s-seed%d.jsonl", opt.workload, opt.seed))
		if err := writeSpans(path, r.tr.snapshot()); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return r.result(w), nil
}

// slices is how many parts the window is cut into. The tail percentiles
// and the throughput are taken per slice and reported as the median over
// the slices, so a few seconds in which other tenants load the host move
// one slice, not the run's figure. A recorder's recordings and operations
// alternate slice by slice, so both sample the whole window and the
// host's slow and fast seconds weigh on both alike.
const slices = 5

// measureWindow runs the measured window. For a recorder, each slice
// gives a quarter of its time to recordings and the rest to operations.
// Operations run in chunks of calChunk with a calibration point before
// each.
func (r *run) measureWindow(w workload) {
	window := time.Duration(r.opt.seconds * float64(time.Second))
	slice := window / slices
	rc, isRecorder := w.(recorder)
	before := readRuntime()
	for i := 0; i < slices; i++ {
		r.mu.Lock()
		r.slice = i
		r.mu.Unlock()
		ops := slice
		if isRecorder {
			r.recordPhase(rc, slice/4)
			ops = slice - slice/4
		}
		end := time.Now().Add(ops)
		var done int
		var took time.Duration
		for first := true; first || time.Now().Before(end); first = false {
			r.calibrate(w.width())
			n, d := r.measure(w, min(calChunk, time.Until(end)))
			done += n
			took += d
		}
		r.sliceRPS = append(r.sliceRPS, float64(done)/took.Seconds())
	}
	after := readRuntime()
	if r.tr != nil {
		ops := float64(max(r.completed, 1))
		r.addLayer("runtime.gc_cycles", after.gcCycles-before.gcCycles)
		if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
			r.addLayer("runtime.gc_cpu_share", (after.gcCPU-before.gcCPU)/cpu)
		}
		r.addLayer("runtime.alloc_bytes_per_op", (after.allocBytes-before.allocBytes)/ops)
	}
}

// recordPhase records and recovers the workload's execution repeatedly
// until the window closes. In a traced run every other recording is
// traced; its spans carry query id -2.
func (r *run) recordPhase(rc recorder, window time.Duration) {
	start := time.Now()
	for time.Since(start) < window {
		r.calibrate(1)
		i := r.recordings
		r.recordings++
		dir := filepath.Join(r.work, fmt.Sprintf("record-%d", i))
		var tr *tracer
		if i%2 == 1 {
			tr = r.tr
		}
		events, rec, rcv, err := rc.record(tr, dir)
		r.mu.Lock()
		r.attempted++
		r.mu.Unlock()
		if err != nil {
			r.fail(fmt.Sprintf("recording %d", i), err)
			continue
		}
		r.sample("record_events_per_s", float64(events)/rec.Seconds())
		r.sample("recover_s", rcv.Seconds())
		bytes, segs, err := dirSize(dir)
		if err != nil {
			r.fail(fmt.Sprintf("recording %d", i), err)
			continue
		}
		r.logBytesPerEvent = float64(bytes) / float64(events)
		if r.tr != nil {
			r.addLayer("store.bytes", float64(bytes))
			r.addLayer("store.segments", float64(segs))
		}
		// Keep the newest store for the traced run's probe.
		if r.lastStore != "" {
			if err := os.RemoveAll(r.lastStore); err != nil {
				r.fail("removing a store", err)
			}
		}
		r.lastStore = dir
	}
}

// measure runs the workload's closed-loop callers until the window
// closes, for at least two operations, and returns how many completed and
// how long that took. In a traced run every other operation is traced, so
// the two halves give the tracing overhead.
func (r *run) measure(w workload, window time.Duration) (int, time.Duration) {
	start := time.Now()
	first := int(r.nextOp.Load())
	completedBefore := r.completed
	var wg sync.WaitGroup
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// At least two operations run, so a traced run always
				// traces one.
				q := int(r.nextOp.Add(1)) - 1
				if q >= first+2 && time.Since(start) >= window {
					return
				}
				var tr *tracer
				if r.tr != nil && q%2 == 1 {
					tr = r.tr
				}
				t0 := time.Now()
				err := w.op(tr, q)
				d := time.Since(t0)
				r.mu.Lock()
				r.attempted++
				r.mu.Unlock()
				if err != nil {
					r.fail(fmt.Sprintf("op %d", q), err)
					continue
				}
				r.mu.Lock()
				r.completed++
				if tr != nil {
					r.tracedOps++
				}
				r.mu.Unlock()
				switch {
				case r.tr == nil:
					r.sample("serve_ms", ms(d))
				case tr != nil:
					r.sample("op_ms_traced", ms(d))
				default:
					r.sample("op_ms_untraced", ms(d))
				}
			}
		}()
	}
	wg.Wait()
	took := time.Since(start)
	r.window += took
	return r.completed - completedBefore, took
}

// measureHeap reads the live heap after forced collections, while the
// workload's diagnosable state is still referenced.
func (r *run) measureHeap() {
	var live []float64
	for i := 0; i < 3; i++ {
		runtime.GC()
		live = append(live, readRuntime().liveHeap)
	}
	r.retainedHeapMB = Summarize(live).Median / (1 << 20)
	if r.tr != nil {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		r.heapInuseMB = float64(m.HeapInuse) / (1 << 20)
	}
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	info map[string]any // printed before the result line
}

// metricDef names one reported metric.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd lists the metrics of an untraced run; BENCHMARK.json lists the
// same names.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"turnaround_ms_p50", "ms", "lower"},
	{"turnaround_ms_p90", "ms", "lower"},
	{"record_events_per_s", "1/s", "higher"},
	{"recover_s", "s", "lower"},
	{"log_bytes_per_event", "B/event", "lower"},
	{"retained_heap_mb", "MiB", "lower"},
	{"serve_ms_p50", "ms", "lower"},
	{"serve_ms_p90", "ms", "lower"},
	{"serve_rps", "1/s", "higher"},
	{"ok_ops_share", "share", "higher"},
}

// selfLayers are the layers the traced run reports self time for.
var selfLayers = []string{"bench", "store", "ndlog", "provenance", "replay", "core", "server"}

// perLayer lists the metrics of a traced run; BENCHMARK.json lists the
// same names.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"ndlog.run_ms", "ms", "lower"},
		{"ndlog.allocs_per_event", "count", "lower"},
		{"ndlog.derivations", "count", "lower"},
		{"ndlog.messages", "count", "lower"},
		{"ndlog.index_probes", "count", "lower"},
		{"ndlog.index_scans", "count", "lower"},
		{"ndlog.agg_retract_misses", "count", "lower"},
		{"provenance.graph_ms", "ms", "lower"},
		{"provenance.vertices", "count", "lower"},
		{"provenance.tree_ms", "ms", "lower"},
		{"provenance.tree_vertices", "count", "lower"},
		{"replay.trials", "count", "lower"},
		{"replay.time_ms", "ms", "lower"},
		{"replay.prefix_hits", "count", "higher"},
		{"replay.prefix_misses", "count", "lower"},
		{"replay.prefix_hit_ratio", "share", "higher"},
		{"replay.fork_ms", "ms", "lower"},
		{"replay.events_skipped", "count", "higher"},
		{"replay.events_refired", "count", "lower"},
		{"replay.dirty_tables", "count", "lower"},
		{"core.diagnose_ms", "ms", "lower"},
		{"core.findseed_ms", "ms", "lower"},
		{"core.divergence_ms", "ms", "lower"},
		{"core.makeappear_ms", "ms", "lower"},
		{"core.updatetree_ms", "ms", "lower"},
		{"core.rounds", "count", "lower"},
		{"core.changes", "count", "lower"},
		{"core.fingerprint_hits", "count", "higher"},
		{"core.candidates_deduped", "count", "higher"},
		{"core.parallel_candidates", "count", "higher"},
		{"core.candidates_sliced", "count", "higher"},
		{"core.allocs_per_query", "count", "lower"},
		{"store.append_ms", "ms", "lower"},
		{"store.read_ms", "ms", "lower"},
		{"store.bytes", "B", "lower"},
		{"store.segments", "count", "lower"},
		{"store.bytes_read", "B", "lower"},
		{"store.records_read", "count", "lower"},
		{"store.segments_skipped", "count", "higher"},
		{"server.overhead_ms", "ms", "lower"},
		{"server.shed", "count", "lower"},
		{"mapreduce.diagnose_ms", "ms", "lower"},
		{"sdn.diagnose_ms", "ms", "lower"},
		{"runtime.gc_cycles", "count", "lower"},
		{"runtime.gc_cpu_share", "share", "lower"},
		{"runtime.alloc_bytes_per_op", "B", "lower"},
		{"runtime.heap_inuse_mb", "MiB", "lower"},
	}
	for _, l := range selfLayers {
		defs = append(defs, metricDef{"self." + l + "_ms", "ms", "lower"})
	}
	return append(defs,
		metricDef{"trace.overhead_ms", "ms", "lower"},
		metricDef{"trace.spans_per_op", "count", "lower"},
	)
}()

// result assembles the run's metrics.
func (r *run) result(w workload) *result {
	r.mu.Lock()
	defer r.mu.Unlock()
	res := &result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	if res.Attempted == 0 {
		res.Attempted = 1
	}
	values := map[string]float64{}
	if r.tr == nil {
		r.endToEndValues(values, w.width())
		for _, d := range endToEnd {
			res.Metrics[d.Name] = metricValue{finite(values[d.Name]), d.Unit}
		}
	} else {
		r.perLayerValues(values)
		for _, d := range perLayer {
			res.Metrics[d.Name] = metricValue{finite(values[d.Name]), d.Unit}
		}
	}
	res.info = r.info(w)
	return res
}

// finite maps the NaN of an empty sample set to 0, which JSON can carry.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func (r *run) endToEndValues(v map[string]float64, width int) {
	// Timings are scaled to the reference host, and rates divided by the
	// same factor (calibrate.go): set-ups and recordings by the one-thread
	// calibration, operations by the one as wide as they are.
	v["setup_s"] = Summarize(r.samples["setup_s"]).Median * r.scale(-1, 1)
	v["turnaround_ms_p50"] = Summarize(r.scaled("turnaround_ms", width)).Median
	v["turnaround_ms_p90"] = r.slicedP90("turnaround_ms", width)
	v["record_events_per_s"] = Summarize(r.scaled("record_events_per_s", 1)).Median
	v["recover_s"] = Summarize(r.scaled("recover_s", 1)).Median
	v["log_bytes_per_event"] = r.logBytesPerEvent
	v["retained_heap_mb"] = r.retainedHeapMB
	v["serve_ms_p50"] = Summarize(r.scaled("serve_ms", width)).Median
	v["serve_ms_p90"] = r.slicedP90("serve_ms", width)
	var rps []float64
	for i, x := range r.sliceRPS {
		rps = append(rps, x/r.scale(i, width))
	}
	v["serve_rps"] = Summarize(rps).Median
	v["ok_ops_share"] = float64(r.attempted-r.failed) / float64(max(r.attempted, 1))
}

// scaled returns the window's samples of the named quantity, each scaled
// to the reference host by the calibration of its slice on width threads;
// a rate is divided by the factor instead.
func (r *run) scaled(name string, width int) []float64 {
	var out []float64
	for i, s := range r.bySlice[name] {
		k := r.scale(i, width)
		if rates[name] {
			k = 1 / k
		}
		for _, x := range s {
			out = append(out, x*k)
		}
	}
	return out
}

// rates are the sampled quantities that are per-second rates; the others
// are durations.
var rates = map[string]bool{"record_events_per_s": true}

// slicedP90 is the median over the window's slices of each slice's 90th
// percentile of the named samples, scaled to the reference host.
func (r *run) slicedP90(name string, width int) float64 {
	var p90s []float64
	for i, s := range r.bySlice[name] {
		if len(s) > 0 {
			p90s = append(p90s, Percentile(s, 90)*r.scale(i, width))
		}
	}
	return Summarize(p90s).Median
}

func (r *run) perLayerValues(v map[string]float64) {
	for name, m := range r.layer {
		if m.n > 0 {
			v[name] = m.sum / m.n
		}
	}
	if h, m := v["replay.prefix_hits"], v["replay.prefix_misses"]; h+m > 0 {
		v["replay.prefix_hit_ratio"] = h / (h + m)
	}
	v["runtime.heap_inuse_mb"] = r.heapInuseMB
	spans := r.tr.snapshot()
	ops := float64(max(r.tracedOps, 1))
	for layer, d := range SelfTimes(spans, func(q int) bool { return q >= 0 }) {
		v["self."+layer+"_ms"] = ms(d) / ops
	}
	n := 0
	for _, s := range spans {
		if s.Query >= 0 {
			n++
		}
	}
	v["trace.spans_per_op"] = float64(n) / ops
	v["trace.overhead_ms"] = Summarize(r.samples["op_ms_traced"]).Median - Summarize(r.samples["op_ms_untraced"]).Median
}

// info describes the host, the workload's parameters and the sample
// counts behind the reported order statistics.
func (r *run) info(w workload) map[string]any {
	cal := map[string]any{"ref_unit_ms": calRefMs}
	for k, units := range r.cal {
		name := fmt.Sprintf("slice%d_threads%d", k.slice, k.width)
		if k.slice < 0 {
			name = fmt.Sprintf("setup_threads%d", k.width)
		}
		cal[name] = map[string]any{"units": len(units), "median_unit_ms": Summarize(units).Median,
			"scale": r.scale(k.slice, k.width)}
	}
	counts := map[string]any{}
	for name, s := range r.samples {
		sum := Summarize(s)
		counts[name] = map[string]any{"n": sum.N, "median": sum.Median, "q1": sum.Q1, "q3": sum.Q3,
			"tail_percentile": sum.TailP, "tail": sum.Tail}
	}
	return map[string]any{
		"host":        hostFingerprint(),
		"workload":    r.opt.workload,
		"seed":        r.opt.seed,
		"seconds":     r.opt.seconds,
		"traced":      r.tr != nil,
		"params":      w.params(),
		"samples":     counts,
		"window_s":    r.window.Seconds(),
		"slice_rps":   r.sliceRPS,
		"calibration": cal,
		"completed":   r.completed,
		"problems":    r.problems,
	}
}

// hostFingerprint identifies the machine and runtime a result came from.
func hostFingerprint() map[string]any {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"gogc":       gogc,
	}
}

// cpuModel returns the processor model name the kernel reports.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func main() {
	opt, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	res, err := execute(opt, defaultExpectations())
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	for _, p := range res.info["problems"].([]string) {
		fmt.Fprintln(os.Stderr, "e2ebench: failed:", p)
	}
	info, err := json.Marshal(res.info)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Printf("# %s\n%s\n", info, out)
}
