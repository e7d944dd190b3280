package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"ropus/internal/core"
	"ropus/internal/experiments"
	"ropus/internal/placement"
	"ropus/internal/telemetry"
	"ropus/internal/workload"
)

// TestContractMatchesBenchmarkJSON keeps the metric and workload lists
// the program prints in step with BENCHMARK.json.
func TestContractMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metricDef, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %s/%s, BENCHMARK.json %s/%s", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, doc.EndToEnd)
	same("per_layer", perLayer, doc.PerLayer)
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for name := range workloads {
		have = append(have, name)
	}
	sort.Strings(names)
	sort.Strings(have)
	if !slices.Equal(names, have) {
		t.Errorf("workloads: program %v, BENCHMARK.json %v", have, names)
	}
}

// TestWorkloads runs one short pass of every workload, untraced on the
// default seed and traced on another seed, and checks that the run is
// correct and prints every metric of its kind with its unit.
func TestWorkloads(t *testing.T) {
	for name := range workloads {
		for _, tc := range []struct {
			seed  int64
			trace bool
		}{{defaultSeed, false}, {7, true}} {
			t.Run(name+"/"+map[bool]string{false: "untraced", true: "traced"}[tc.trace], func(t *testing.T) {
				o := options{workload: name, seed: tc.seed, trace: tc.trace, minPasses: 1}
				var stdout, stderr bytes.Buffer
				code := printResult(&stdout, &stderr, o, readHostFacts(o.seed), workloads[name].run(context.Background(), o), "")
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				if code != 0 {
					t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
				}
				var line resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
					t.Fatal(err)
				}
				if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", line.Correct, line.Attempted, line.Failed, stdout.String())
				}
				defs := endToEnd
				if tc.trace {
					defs = perLayer
				}
				if len(line.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, want %d", len(line.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := line.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.name)
					case m.Unit != d.unit:
						t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
					case !tc.trace && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
			})
		}
	}
}

// smallPlan consolidates a six-application fleet, small enough to
// corrupt by hand.
func smallPlan(t *testing.T) *core.Consolidation {
	t.Helper()
	set, err := workload.Fleet(workload.FleetConfig{Bursty: 2, Smooth: 4, Weeks: 1, Interval: time.Hour, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.New(quickConfig(0.6, defaultSeed, nil))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := f.Translate(context.Background(), set, requirements(defaultQoS, defaultQoS))
	if err != nil {
		t.Fatal(err)
	}
	cons, err := f.Consolidate(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if cons.ServersUsed() < 2 {
		t.Fatalf("fixture plan uses %d servers; the corruptions need two", cons.ServersUsed())
	}
	return cons
}

// clonePlan deep-copies the parts of a plan the corruptions touch.
func clonePlan(p *placement.Plan) *placement.Plan {
	c := *p
	c.Assignment = p.Assignment.Clone()
	c.Usages = make([]placement.ServerUsage, len(p.Usages))
	for i, u := range p.Usages {
		u.AppIDs = slices.Clone(u.AppIDs)
		c.Usages[i] = u
	}
	return &c
}

// usedServers returns the indexes of servers hosting applications.
func usedServers(p *placement.Plan) []int {
	var used []int
	for s, u := range p.Usages {
		if len(u.AppIDs) > 0 {
			used = append(used, s)
		}
	}
	return used
}

// TestCheckerRejectsCorruptPlans: the checks the benchmark applies to
// every reference plan accept a real plan and reject one with an
// application dropped, one with an application placed twice, and one
// that claims to fit every application on one server.
func TestCheckerRejectsCorruptPlans(t *testing.T) {
	cons := smallPlan(t)
	verify := func(plan *placement.Plan) error {
		if err := checkPlan(cons.Problem, plan); err != nil {
			return err
		}
		return reevaluate(cons.Problem, plan)
	}
	if err := verify(cons.Plan); err != nil {
		t.Fatalf("real plan rejected: %v", err)
	}
	corruptions := map[string]func(p *placement.Plan){
		"app dropped": func(p *placement.Plan) {
			s := usedServers(p)[0]
			p.Usages[s].AppIDs = p.Usages[s].AppIDs[1:]
		},
		"app duplicated": func(p *placement.Plan) {
			used := usedServers(p)
			p.Usages[used[1]].AppIDs = append(p.Usages[used[1]].AppIDs, p.Usages[used[0]].AppIDs[0])
		},
		"server overbooked": func(p *placement.Plan) {
			first := usedServers(p)[0]
			var all []string
			for s := range p.Usages {
				all = append(all, p.Usages[s].AppIDs...)
				p.Usages[s].AppIDs = nil
			}
			for i := range p.Assignment {
				p.Assignment[i] = first
			}
			p.Usages[first].AppIDs = all
			p.ServersUsed = 1
		},
	}
	for name, corrupt := range corruptions {
		bad := clonePlan(cons.Plan)
		corrupt(bad)
		if err := verify(bad); err == nil {
			t.Errorf("%s: corrupt plan accepted", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
}

// TestTable1MatchesExperiments: the benchmark's Table-1 pass, which calls
// the framework directly to time each layer, reproduces
// experiments.Table1 with the Quick settings case by case.
func TestTable1MatchesExperiments(t *testing.T) {
	w := &table1{}
	if err := w.setup(nil); err != nil {
		t.Fatal(err)
	}
	out, err := w.pass(context.Background(), &passCtx{gaSeed: defaultSeed})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := experiments.Table1(context.Background(), w.set, experiments.Table1Config{GASeed: defaultSeed, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		if got := out.cons[i]; got.ServersUsed() != row.Servers || got.CRequTotal() != row.CRequ {
			t.Errorf("case %d: benchmark %d servers / %.6g CPUs, experiments %d / %.6g",
				row.Case.ID, got.ServersUsed(), got.CRequTotal(), row.Servers, row.CRequ)
		}
	}
}

// TestSelfTime: a span's self time excludes the union of its children,
// overlapping or not, clipped to the span.
func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []telemetry.SpanRecord{
		{ID: 1, RootID: 1, Name: "pass", Start: 0, Duration: 100 * ms},
		{ID: 2, ParentID: 1, RootID: 1, Name: "a", Start: 10 * ms, Duration: 30 * ms},
		{ID: 3, ParentID: 1, RootID: 1, Name: "a", Start: 20 * ms, Duration: 30 * ms},
		{ID: 4, ParentID: 1, RootID: 1, Name: "b", Start: 90 * ms, Duration: 20 * ms},
		{ID: 5, ParentID: 3, RootID: 1, Name: "c", Start: 25 * ms, Duration: 5 * ms},
	}
	self := selfTimes(spans)[1]
	if got, want := self["pass"][0], 50*ms; got != want {
		t.Errorf("pass self time %v, want %v", got, want)
	}
	if got, want := sumSeconds(self["a"]), (55 * ms).Seconds(); got != want {
		t.Errorf("a self time %v, want %v", got, want)
	}
}
