//go:build !race

package lz4

const raceDetector = false
