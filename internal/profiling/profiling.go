// Package profiling wires the standard pprof/trace collectors into the
// command-line tools, so hot paths can be inspected with `go tool pprof`
// and `go tool trace` without editing code.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Config names the output files; empty fields disable the collector.
type Config struct {
	// CPUProfile receives a pprof CPU profile for the whole run.
	CPUProfile string
	// MemProfile receives a heap profile taken at shutdown (after a GC).
	MemProfile string
	// Trace receives a runtime execution trace for the whole run.
	Trace string
	// MutexProfile receives a mutex-contention profile taken at shutdown.
	// Sampling runs for the whole process (SetMutexProfileFraction(1)) —
	// the serve path's lock-contention evidence: shard, cache-region and
	// metadata-store mutexes.
	MutexProfile string
	// BlockProfile receives a goroutine-blocking profile taken at
	// shutdown (SetBlockProfileRate(1) for the whole process).
	BlockProfile string
}

// Start begins the requested collectors and returns a stop function that
// must run exactly once at shutdown; it finalizes every output file.
func (c Config) Start() (func() error, error) {
	var cpuFile, traceFile *os.File
	fail := func(err error) (func() error, error) {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if traceFile != nil {
			trace.Stop()
			traceFile.Close()
		}
		return nil, err
	}
	if c.CPUProfile != "" {
		f, err := os.Create(c.CPUProfile)
		if err != nil {
			return fail(fmt.Errorf("profiling: %w", err))
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(fmt.Errorf("profiling: start cpu profile: %w", err))
		}
		cpuFile = f
	}
	if c.Trace != "" {
		f, err := os.Create(c.Trace)
		if err != nil {
			return fail(fmt.Errorf("profiling: %w", err))
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			return fail(fmt.Errorf("profiling: start trace: %w", err))
		}
		traceFile = f
	}
	if c.MutexProfile != "" {
		runtime.SetMutexProfileFraction(1)
	}
	if c.BlockProfile != "" {
		runtime.SetBlockProfileRate(1)
	}
	stop := func() error {
		var firstErr error
		keep := func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if cpuFile != nil {
			pprof.StopCPUProfile()
			keep(cpuFile.Close())
		}
		if traceFile != nil {
			trace.Stop()
			keep(traceFile.Close())
		}
		if c.MemProfile != "" {
			f, err := os.Create(c.MemProfile)
			if err != nil {
				keep(err)
			} else {
				runtime.GC() // materialize final live-heap state
				keep(pprof.WriteHeapProfile(f))
				keep(f.Close())
			}
		}
		writeLookup := func(name, path string) {
			f, err := os.Create(path)
			if err != nil {
				keep(err)
				return
			}
			if p := pprof.Lookup(name); p != nil {
				keep(p.WriteTo(f, 0))
			}
			keep(f.Close())
		}
		if c.MutexProfile != "" {
			writeLookup("mutex", c.MutexProfile)
			runtime.SetMutexProfileFraction(0)
		}
		if c.BlockProfile != "" {
			writeLookup("block", c.BlockProfile)
			runtime.SetBlockProfileRate(0)
		}
		return firstErr
	}
	return stop, nil
}
