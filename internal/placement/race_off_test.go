//go:build !race

package placement

// raceEnabled reports a -race build, where sync.Pool deliberately drops
// pooled items and byte counts no longer measure the code.
const raceEnabled = false
