//go:build !race

package netmodel

const raceEnabled = false
