//go:build !race

package tcpnet

const raceEnabled = false
