package failure

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ropus/internal/checkpoint"
	"ropus/internal/placement"
)

// TestJournalKeyCompat pins, as literals, the record key each sweep
// writes for its first scenario. A changed key does not fail a resume;
// it silently recomputes every scenario a journal from an earlier build
// already holds, so the keys are pinned here instead.
func TestJournalKeyCompat(t *testing.T) {
	// A cascade spec with a θ override, left with the zero MaxRounds and
	// OverloadFactor that normalized() fills in before the key is folded.
	spec := ScenarioSpec{Name: "maint/srv-a", Servers: []string{"srv-a"}, Cascade: true, Theta: 0.5}
	for _, tc := range []struct {
		name string
		run  func(context.Context, Input, *placement.Plan) error
		unit string
		key  string
	}{
		{"single srv-a", func(ctx context.Context, in Input, base *placement.Plan) error {
			_, err := Analyze(ctx, in, base)
			return err
		}, "failure.scenario", "6f13356b8222de2b"},
		{"multi k=2 srv-a+srv-b", func(ctx context.Context, in Input, base *placement.Plan) error {
			_, err := AnalyzeMulti(ctx, in, base, 2)
			return err
		}, "failure.multi", "c602c6a360cdfe22"},
		{"spec cascade theta", func(ctx context.Context, in Input, base *placement.Plan) error {
			_, err := AnalyzeScenarios(ctx, in, base, []ScenarioSpec{spec}, nil)
			return err
		}, "failure.scenario_spec", "619480e0f8667c6d"},
	} {
		path := filepath.Join(t.TempDir(), "sweep.ckpt")
		j, err := checkpoint.Open(path, 1, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		in, base, err := sweepInput(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		in.Journal = j
		if err := tc.run(context.Background(), in, base); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		_, records, err := checkpoint.Decode(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(records) == 0 {
			t.Fatalf("%s: journal holds no records", tc.name)
		}
		if got := records[0]; got.Unit != tc.unit || got.Key != tc.key {
			t.Errorf("%s: first record %s[%s], want %s[%s]", tc.name, got.Unit, got.Key, tc.unit, tc.key)
		}
	}

	for _, tc := range []struct {
		name string
		spec ScenarioSpec
		key  string
	}{
		{"spec before normalized", spec, "9fe2f90146b70b54"},
		{"spec after normalized", spec.normalized(), "619480e0f8667c6d"},
	} {
		h := checkpoint.NewHasher()
		tc.spec.fold(h)
		if got := fmt.Sprintf("%016x", h.Sum()); got != tc.key {
			t.Errorf("%s: key %s, want %s", tc.name, got, tc.key)
		}
	}
}
