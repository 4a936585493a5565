// Package netmodel provides the interconnect cost model used between
// compute nodes and file servers. The paper's testbed uses Gigabit
// Ethernet; each sub-request pays a fixed per-message latency plus a
// size-proportional transfer term on the server's link.
package netmodel

import "time"

// Params describes one network link.
type Params struct {
	// Latency is the fixed per-message cost (propagation + stack).
	Latency time.Duration
	// Bandwidth is the link rate in bytes/second.
	Bandwidth float64
}

// Gigabit returns parameters for the paper's Gigabit Ethernet
// interconnection: ~117 MB/s effective payload rate, ~100 µs per message.
func Gigabit() Params {
	return Params{Latency: 100 * time.Microsecond, Bandwidth: 117e6}
}

// Zero returns a free network (no latency, infinite bandwidth), useful for
// isolating device behaviour in unit tests.
func Zero() Params { return Params{} }

// TransferTime returns the time to move size bytes over the link, including
// the fixed per-message latency. Non-positive sizes cost only the latency.
func (p Params) TransferTime(size int64) time.Duration {
	t := p.Latency
	if size > 0 && p.Bandwidth > 0 {
		t += time.Duration(float64(size) / p.Bandwidth * float64(time.Second))
	}
	return t
}
