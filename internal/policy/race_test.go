//go:build race

package policy

// raceDetector reports that the test binary carries the race detector,
// whose instrumentation allocates, so allocation counts are no longer
// the program's.
const raceDetector = true
