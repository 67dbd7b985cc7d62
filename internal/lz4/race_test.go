//go:build race

package lz4

// raceDetector reports that the test binary carries the race detector,
// under which a sync.Pool drops some of what it is given.
const raceDetector = true
