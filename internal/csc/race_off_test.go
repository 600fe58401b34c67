//go:build !race

package csc

const raceEnabled = false
