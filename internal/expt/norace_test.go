//go:build !race

package expt

const raceDetector = false
