//go:build !race

package cluster

const raceDetector = false
