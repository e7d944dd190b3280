package main

import (
	"flag"
	"fmt"
	"io"
	"testing"

	"ropus/internal/checkpoint"
)

// TestFrameworkFoldKeyCompat pins the run-hash contribution of the
// framework flags as literals: checkpoint journals recorded by earlier
// releases must keep resuming, so the fold may never change for flag
// sets that already existed.
func TestFrameworkFoldKeyCompat(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "2fc03de375c07a28"},
		{[]string{"-hierarchical"}, "e941e3e304a6feb4"},
		{[]string{"-hierarchical", "-partition-apps", "16"}, "b84735951184e4e4"},
		{[]string{"-workers", "3", "-sim-cache-mb", "-1"}, "2fc03de375c07a28"},
	} {
		fs := flag.NewFlagSet("compat", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		o := frameworkFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		h := checkpoint.NewHasher()
		o.fold(h)
		if got := fmt.Sprintf("%016x", h.Sum()); got != tc.want {
			t.Errorf("%v: run hash %s, want %s", tc.args, got, tc.want)
		}
	}
}
