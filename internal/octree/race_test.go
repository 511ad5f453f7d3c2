//go:build race

package octree

// raceEnabled reports a -race build, whose instrumentation turns some
// single allocations (slices.Grow's append of a fresh make) into two.
const raceEnabled = true
