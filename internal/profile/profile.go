// Package profile backs the -cpuprofile and -memprofile flags of
// fusebench and fusesim with runtime/pprof, so a reading in the ROADMAP's
// tables can be re-taken with a checked-in command and `go tool pprof`.
package profile

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// StartCPU starts a CPU profile written to path and returns the function
// that stops it and closes the file. An empty path profiles nothing.
func StartCPU(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// WriteHeap writes a heap profile to path after two full collections
// (the second frees what sync.Pool victim caches held through the
// first), so its in-use figures are the live heap at the call.
func WriteHeap(path string) error {
	runtime.GC()
	runtime.GC()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
