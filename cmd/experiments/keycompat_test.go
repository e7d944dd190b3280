package main

import (
	"os"
	"path/filepath"
	"testing"

	"ropus/internal/checkpoint"
	"ropus/internal/obslog"
)

// TestJournalRunHashKeyCompat pins the experiments run hash as literals,
// read back from the journal header: journals recorded by earlier
// releases must keep resuming under the same flags.
func TestJournalRunHashKeyCompat(t *testing.T) {
	for _, tc := range []struct {
		run           string
		seed          int64
		quick         bool
		partitionApps int
		want          string
	}{
		{"all", 2006, false, 0, "cd5320d6cade6a8b"},
		{"table1", 2006, true, 0, "9e64c73b042e6af5"},
		{"failover", 7, false, 0, "b73f2b064c154f73"},
		{"mix", 2006, true, 64, "4e053bd386fe71df"},
	} {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		heal := healOpts{path: path, partitionApps: tc.partitionApps}
		j, err := heal.journal(tc.run, tc.seed, tc.quick, nil, obslog.Discard())
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		run, _, _, err := checkpoint.DecodeWithMeta(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if run != tc.want {
			t.Errorf("%s seed %d quick %v partitions %d: run hash %s, want %s",
				tc.run, tc.seed, tc.quick, tc.partitionApps, run, tc.want)
		}
	}
}
