package mpiio

import (
	"fmt"
	"time"

	"s4dcache/internal/netmodel"
	"s4dcache/internal/sim"
)

// CollectiveConfig tunes two-phase collective I/O.
type CollectiveConfig struct {
	// Aggregators is the number of ranks that issue file requests in the
	// I/O phase; 0 defaults to the communicator size.
	Aggregators int
	// Shuffle is the network model for the exchange phase; the zero value
	// charges no exchange cost.
	Shuffle netmodel.Params
}

// CollectiveWrite performs a two-phase collective write (reference [6]):
// the per-rank spans are merged into contiguous file runs, partitioned
// into file domains across the aggregators, and each aggregator issues one
// large write per run after paying the exchange (shuffle) cost for the
// data it gathers. done runs when every aggregator finishes.
//
// perRank[r] holds rank r's spans; ranks with no data pass nil.
func (f *File) CollectiveWrite(perRank [][]Span, cfg CollectiveConfig, done func(error)) error {
	f.mu.Lock()
	open := f.open
	f.mu.Unlock()
	if !open {
		return fmt.Errorf("mpiio: file %q is closed", f.name)
	}
	if len(perRank) > f.comm.size {
		return fmt.Errorf("mpiio: %d span lists for a %d-rank communicator", len(perRank), f.comm.size)
	}
	var all []Span
	for _, spans := range perRank {
		all = append(all, spans...)
	}
	runs := mergeSpans(all)
	if len(runs) == 0 {
		f.completeEmpty(done)
		return nil
	}
	aggs := cfg.Aggregators
	if aggs <= 0 {
		aggs = f.comm.size
	}
	if aggs > len(runs) {
		aggs = len(runs)
	}

	// Partition runs across aggregators by contiguous groups (file
	// domains), preserving file order.
	domains := make([][]Span, aggs)
	perDomain := (len(runs) + aggs - 1) / aggs
	for i, run := range runs {
		d := i / perDomain
		if d >= aggs {
			d = aggs - 1
		}
		domains[d] = append(domains[d], run)
	}

	join := sim.NewErrJoin(len(runs), done)
	for d, domain := range domains {
		aggregator := d // aggregator rank index
		// Exchange phase: the aggregator gathers its domain's bytes over
		// the network before the I/O phase; modeled as a fixed delay
		// before issuing.
		var domainBytes int64
		for _, run := range domain {
			domainBytes += run.Len
		}
		domain := domain
		f.comm.eng.After(exchangeCost(cfg.Shuffle, domainBytes), func() {
			for _, run := range domain {
				if err := f.comm.transport.Write(aggregator, f.name, run.Off, run.Len, nil, join.Done); err != nil {
					// Transport validation failed; count the run done so
					// the collective still terminates.
					join.Done(err)
				}
			}
		})
	}
	return nil
}

// exchangeCost is the exchange-phase delay for gathering bytes over net;
// the zero network charges nothing.
func exchangeCost(net netmodel.Params, bytes int64) time.Duration {
	if net == (netmodel.Params{}) {
		return 0
	}
	return net.TransferTime(bytes)
}
