//go:build race

package expt

// raceDetector reports that the test binary carries the race detector,
// whose shadow memory multiplies the resident set several times over.
const raceDetector = true
