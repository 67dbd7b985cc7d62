//go:build race

package cluster

// raceDetector reports that the test binary carries the race detector,
// under which sync.Pool drops what it is given at random, so allocation
// counts are no longer the program's.
const raceDetector = true
