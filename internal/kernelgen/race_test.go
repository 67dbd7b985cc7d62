//go:build race

package kernelgen

// raceDetector reports that the test binary carries the race detector,
// whose instrumentation adds allocations of its own.
const raceDetector = true
