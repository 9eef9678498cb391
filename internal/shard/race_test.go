//go:build race

package shard

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
