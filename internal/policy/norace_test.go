//go:build !race

package policy

const raceDetector = false
