package workload

import (
	"fmt"

	"s4dcache/internal/mpiio"
)

// HPIOConfig parameterizes the HPIO benchmark (paper reference [31]):
// every process owns RegionCount regions of RegionSize bytes; consecutive
// regions of one process are separated by the regions of all other
// processes plus RegionSpacing bytes of hole. Spacing 0 makes the file
// contiguous; spacing > 0 produces the noncontiguous patterns of §V.C.
type HPIOConfig struct {
	// Ranks is the number of MPI processes (paper: 16).
	Ranks int
	// RegionCount is regions per process (paper: 4096).
	RegionCount int
	// RegionSize is bytes per region (paper: 8 KB).
	RegionSize int64
	// RegionSpacing is the hole after each region (paper: 0–4 KB).
	RegionSpacing int64
	// File names the shared file.
	File string
}

// Validate reports whether the configuration is usable.
func (c HPIOConfig) Validate() error {
	if c.Ranks <= 0 {
		return fmt.Errorf("workload: HPIO ranks must be positive, got %d", c.Ranks)
	}
	if c.RegionCount <= 0 {
		return fmt.Errorf("workload: HPIO region count must be positive, got %d", c.RegionCount)
	}
	if err := validatePositive("HPIO region size", c.RegionSize); err != nil {
		return err
	}
	if c.RegionSpacing < 0 {
		return fmt.Errorf("workload: HPIO region spacing %d negative", c.RegionSpacing)
	}
	return nil
}

// Spans generates the per-rank region streams: region j of rank p starts
// at (j*Ranks + p) * (RegionSize + RegionSpacing).
func (c HPIOConfig) Spans() ([][]mpiio.Span, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	cell := c.RegionSize + c.RegionSpacing
	out := make([][]mpiio.Span, c.Ranks)
	for p := 0; p < c.Ranks; p++ {
		spans := make([]mpiio.Span, 0, c.RegionCount)
		for j := 0; j < c.RegionCount; j++ {
			off := (int64(j)*int64(c.Ranks) + int64(p)) * cell
			spans = append(spans, mpiio.Span{Off: off, Len: c.RegionSize})
		}
		out[p] = spans
	}
	return out, nil
}

// View returns rank p's strided file view of the same pattern, for use
// with mpiio's strided (data-sieving) write.
func (c HPIOConfig) View(rank int) mpiio.View {
	cell := c.RegionSize + c.RegionSpacing
	return mpiio.View{
		Disp:     int64(rank) * cell,
		BlockLen: c.RegionSize,
		Stride:   int64(c.Ranks) * cell,
		Count:    int64(c.RegionCount),
	}
}

// RunHPIO runs one HPIO phase (write or read) on the communicator.
func RunHPIO(comm *mpiio.Comm, cfg HPIOConfig, write bool, done func(Result)) error {
	spans, err := cfg.Spans()
	if err != nil {
		return err
	}
	name := cfg.File
	if name == "" {
		name = "hpio.dat"
	}
	f := comm.Open(name)
	return Run(f, spans, write, done)
}
