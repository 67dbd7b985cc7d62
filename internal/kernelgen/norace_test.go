//go:build !race

package kernelgen

const raceDetector = false
