//go:build race

package kbs_test

const raceDetector = true
