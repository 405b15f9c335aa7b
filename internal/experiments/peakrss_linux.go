package experiments

import "syscall"

// peakRSSMB is the process's resident-set high-water mark in MB: getrusage's
// ru_maxrss, which Linux reports in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
