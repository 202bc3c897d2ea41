package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// smoke runs one small workload and returns its result.
func smoke(t *testing.T, workload string, traced bool, exp expectations) *result {
	t.Helper()
	res, err := execute(options{workload: workload, seed: 7, seconds: 0.4, trace: traced,
		smoke: true, out: t.TempDir()}, exp)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// TestSmokeAllWorkloads runs every workload at small size, untraced and
// traced, and checks that each run is correct and reports every metric.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			res := smoke(t, w, false, defaultExpectations())
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced run: correct=%v attempted=%d failed=%d problems=%v",
					res.Correct, res.Attempted, res.Failed, res.info["problems"])
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("untraced run reports %d metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %+v, want a positive value in %s", d.Name, m, d.Unit)
				}
			}

			res = smoke(t, w, true, defaultExpectations())
			if !res.Correct {
				t.Fatalf("traced run failed: %v", res.info["problems"])
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("traced run reports %d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("per-layer metric %s = %+v, want unit %s", d.Name, m, d.Unit)
				}
			}
			for _, name := range []string{"ndlog.run_ms", "ndlog.derivations", "store.read_ms", "store.bytes", "self.bench_ms"} {
				if !(res.Metrics[name].Value > 0) {
					t.Errorf("%s = %v, want > 0 on every workload", name, res.Metrics[name].Value)
				}
			}
		})
	}
}

// TestGatesFire swaps each known answer for a wrong one and checks that
// the run reports the failure.
func TestGatesFire(t *testing.T) {
	cases := []struct {
		name, workload string
		spoil          func(*expectations)
	}{
		{"stanford fault node", "stanford-cold", func(e *expectations) { e.stanfordFaultNode = "ozrtr1" }},
		{"aggregate missing set", "aggregate-warm", func(e *expectations) { e.aggregateExtra = []int{-1} }},
		{"forward recovered log", "forward-record", func(e *expectations) { e.forwardExtraEvents = 1 }},
		{"table1 root cause", "table1-serve", func(e *expectations) {
			e.table1 = table1RootCauses()
			e.table1["SDN1"] = []string{strings.Replace(e.table1["SDN1"][0], "/23", "/24", 1)}
		}},
		{"aggregate retraction misses", "aggregate-warm", func(e *expectations) { e.aggRetractMisses = 1 }},
		{"aggregate retraction misses (forward)", "forward-record", func(e *expectations) { e.aggRetractMisses = 1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			exp := defaultExpectations()
			c.spoil(&exp)
			res := smoke(t, c.workload, false, exp)
			if res.Correct || res.Failed == 0 {
				t.Fatalf("a wrong expected answer passed: correct=%v failed=%d", res.Correct, res.Failed)
			}
			problems := res.info["problems"].([]string)
			if len(problems) == 0 || !strings.Contains(problems[0], errGate.Error()) {
				t.Errorf("failure is not a gate rejection: %v", problems)
			}
			if got := res.Metrics["ok_ops_share"].Value; got >= 1 {
				t.Errorf("ok_ops_share = %v, want < 1", got)
			}
		})
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names the workloads and
// metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
}
