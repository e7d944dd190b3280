package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ropus/internal/telemetry"
	"ropus/internal/trace"
)

// keyCompatCSV is a fixed two-app, three-sample trace set, so the pinned
// job IDs below depend on the key derivation only, not on a generator.
const keyCompatCSV = "interval:1h0m0s,app-01,app-02\n0,1.25,0.5\n1,1.3,0.55\n2,0.75,2\n"

// keyCompatScenarios is a scenario document folded into failover keys.
const keyCompatScenarios = `{"scenarios":[{"name":"lose-s1","kind":"server-loss","servers":["s1"]}]}`

// TestJobIDKeyCompat pins the job ID of every kind x partitionApps x
// scenarios combination as a literal. A job ID names the job's state
// file and binds its checkpoint journals, so a change here would orphan
// every persisted job and journal; the table must only ever grow.
func TestJobIDKeyCompat(t *testing.T) {
	set, err := trace.ReadCSV(strings.NewReader(keyCompatCSV))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"translate/p0/s0": "6bcb01699eded467",
		"translate/p0/s1": "8ea6b54abe389e98",
		"translate/p2/s0": "a7ef0f7aee10746c",
		"translate/p2/s1": "80b900ceb8f68559",
		"place/p0/s0":     "7cb67890c944e576",
		"place/p0/s1":     "fe87fa52f0ce0123",
		"place/p2/s0":     "e6b2afeafbf6d9d1",
		"place/p2/s1":     "0edac00f3ec01baa",
		"failover/p0/s0":  "455fcfcb3e2e22e0",
		"failover/p0/s1":  "dcb5f090450a9955",
		"failover/p2/s0":  "a49df65a71d9191b",
		"failover/p2/s1":  "3e40767158771f14",
		"plan/p0/s0":      "9ab1be1d6bd941f5",
		"plan/p0/s1":      "3822b2d3fc3f08f6",
		"plan/p2/s0":      "669f120283558972",
		"plan/p2/s1":      "a8cbe28e10563b17",
	}
	for _, kind := range []string{KindTranslate, KindPlace, KindFailover, KindPlan} {
		for _, parts := range []int{0, 2} {
			for _, scen := range []bool{false, true} {
				spec := JobSpec{Kind: kind, TracesCSV: keyCompatCSV, PartitionApps: parts}
				name := fmt.Sprintf("%s/p%d/s0", kind, parts)
				if scen {
					spec.ScenariosJSON = keyCompatScenarios
					name = fmt.Sprintf("%s/p%d/s1", kind, parts)
				}
				spec.normalize()
				if got := jobID(spec.Key(set)); got != want[name] {
					t.Errorf("%s: job ID %s, want %s", name, got, want[name])
				}
			}
		}
	}
}

// TestSubmitRejectsIslands: the islands field is gone from JobSpec, and
// submission decodes strictly, so a client still sending it gets a 400
// naming the field instead of a job whose results silently ignore it.
func TestSubmitRejectsIslands(t *testing.T) {
	_, base, _ := startServer(t, Config{StateDir: t.TempDir(), Workers: 1})
	body := `{"kind":"place","tracesCsv":` + strconv.Quote(keyCompatCSV) + `,"islands":4}`
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e struct{ Error string }
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, `unknown field "islands"`) {
		t.Errorf("islands submit: %d %q, want 400 naming the field", resp.StatusCode, e.Error)
	}
}

// legacyIslandsSpec is a place job persisted by a release that still
// had the islands field, under the ID that release derived for it
// (islands 4 folded into the key).
const (
	legacyIslandsID   = "a32274ac508608a2"
	legacyIslandsSpec = `{"kind":"place","tenant":"default","tracesCsv":"interval:1h0m0s,app-01,app-02\n0,1.25,0.5\n1,1.3,0.55\n2,0.75,2\n","theta":0.6,"deadline":"1h0m0s","serverCpus":16,"gaSeed":42,"islands":4,"qos":{"ulow":0.5,"uhigh":0.66,"udegr":0.9,"mPercent":97,"tdegr":"30m0s"},"failureQos":{"ulow":0.5,"uhigh":0.66,"udegr":0.9,"mPercent":97,"tdegr":"30m0s"}}`
)

// TestRestoreQuarantinesIslandsSpec: a persisted islands job no longer
// hashes to its ID, so restore quarantines it instead of re-running it
// as a single-population search under the old ID.
func TestRestoreQuarantinesIslandsSpec(t *testing.T) {
	dir := t.TempDir()
	jobs := filepath.Join(dir, "jobs")
	if err := os.MkdirAll(jobs, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(jobs, legacyIslandsID+".json")
	if err := os.WriteFile(path, []byte(legacyIslandsSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	m, err := NewManager(Config{StateDir: dir, Workers: 1}, telemetry.New(reg, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Job(legacyIslandsID); ok {
		t.Error("legacy islands job restored under its old ID")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("legacy spec not quarantined: %v", err)
	}
	if got := reg.Counter("serve_state_quarantined_total").Value(); got != 1 {
		t.Errorf("serve_state_quarantined_total = %d, want 1", got)
	}
}
