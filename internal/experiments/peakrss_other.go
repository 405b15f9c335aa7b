//go:build !linux

package experiments

// peakRSSMB reads 0 where the process's resident-set high-water mark is
// not read (getrusage's ru_maxrss is Linux's unit here).
func peakRSSMB() float64 { return 0 }
