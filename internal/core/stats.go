package core

import "time"

// Stats counts S4D activity. Segment counters (Seg*) count DMT-split
// segments, so one application request may contribute several; the
// request distribution of the paper's Table III is the cache/disk split
// of these counters.
type Stats struct {
	// Reads and Writes count intercepted application requests.
	Reads, Writes uint64
	// BytesRead and BytesWritten count application bytes.
	BytesRead, BytesWritten int64

	// Identified counts Data Identifier evaluations; Critical counts
	// positive-benefit results.
	Identified, Critical uint64

	// Segment routing counters.
	SegReadsCache, SegReadsDisk     uint64
	SegWritesCache, SegWritesDisk   uint64
	BytesReadCache, BytesReadDisk   int64
	BytesWriteCache, BytesWriteDisk int64

	// Admissions counts write-miss segments absorbed by the cache;
	// AdmitFailures counts segments denied for lack of space.
	Admissions, AdmitFailures uint64

	// LazyMarks counts read-miss segments marked C_flag for lazy fetch.
	LazyMarks uint64

	// Rebuilder activity. Retries count flushes/fetches abandoned because
	// the file was written during the data movement (epoch conflicts).
	RebuildCycles, Flushes, FlushRetries, Fetches, FetchFailures, FetchRetries uint64
	BytesFlushed, BytesFetched                                                 int64

	// MetaWrites counts charged DMT persistence writes. MetaReads counts
	// charged fault-in reads of spilled metadata; MetaFaultIns counts every
	// DMT fault-in (charged or not) observed by this engine's hook.
	MetaWrites   uint64
	MetaReads    uint64
	MetaFaultIns uint64

	// Resident-budget metadata counters (DESIGN.md §16), from the DMT.
	// MetaResidentBytes/MetaMemoryBytes gauge the packed extent storage and
	// its per-file bookkeeping; MetaSpilledFiles gauges files currently
	// spilled to sealed store records; MetaSpills/MetaFaultInsTable count
	// spill-out and fault-in transitions inside the table (the table's own
	// counter, which also covers fault-ins triggered below the engine hook);
	// MetaSpillQuarantined counts spill records rejected by fault-in
	// verification and durably tombstoned.
	MetaResidentBytes    int64
	MetaMemoryBytes      int64
	MetaSpilledFiles     int
	MetaSpills           uint64
	MetaFaultInsTable    uint64
	MetaSpillQuarantined uint64

	// EpochsPruned counts file write-epoch counters dropped once a file's
	// cache residency (DMT mappings and CDT extents) was fully gone.
	EpochsPruned uint64

	// Fault and degraded-mode counters. All stay zero on fault-free runs.
	//
	// Retries counts transient-I/O-error retries across both PFS layers
	// (pulled from them at snapshot time). Failovers counts write segments
	// routed to the DServers because their cache home was down (hits on
	// crashed ranges plus admissions denied while degraded). DeferredReads
	// counts read segments parked until a crashed CServer restarted.
	// DirtyLost is the dirty cache bytes whose only copy died with a
	// CServer that never restarts. DegradedTime is virtual time with at
	// least one CServer down. WALReplays is the number of DMT op-log
	// records replayed when the metadata store last opened.
	Retries       uint64
	Failovers     uint64
	DeferredReads uint64
	DirtyLost     int64
	DegradedTime  time.Duration
	WALReplays    uint64

	// Metadata-engine commit counters, from the kvstore under the DMT.
	// MetaGroupCommits counts WAL frames the group committer wrote;
	// MetaGroupedRecords counts the records those frames carried. In the
	// single-threaded simulator every group has size one, so the two are
	// equal; a concurrent deployment amortizes syncs and the ratio
	// records/commits is the average group size.
	MetaGroupCommits   uint64
	MetaGroupedRecords uint64

	// Cache-policy counters (DESIGN.md §13). CachePolicy is the active
	// eviction/admission policy's name; CacheTouches and CacheEvictions
	// count cache-hit restamps and evicted fragments. The Policy*
	// counters come from the active policy instance: admissions bounced
	// by its gate (TinyLFU), ghost-table readmissions and small→main
	// promotions (S3-FIFO). PolicySwaps and AdaptTicks count the
	// adaptive engine's live reconfigurations and window snapshots.
	CachePolicy         string
	CacheTouches        uint64
	CacheEvictions      uint64
	PolicyAdmitRejected uint64
	PolicyGhostHits     uint64
	PolicyPromotions    uint64
	PolicySwaps         uint64
	AdaptTicks          uint64
	// PolicyQueueLen is a gauge: the candidate queue's current length
	// (live + stale entries), a fragmentation/leak diagnostic.
	PolicyQueueLen int

	// Warm-restart counters (DESIGN.md §14). Snapshots counts residency
	// images streamed to the metadata store; SnapshotRecords the sealed
	// records they rewrote (only changed files' records are rewritten
	// after an engine's first image). Recovered* count extents re-admitted from the
	// durable image at restart (bytes across both). QuarantinedRecords
	// counts persisted records rejected by verification — seal failures,
	// unparseable payloads, adopt conflicts, and records the snapshot
	// header promised but that never surfaced; QuarantinedBytes the extent
	// bytes those rejections dropped (dirty quarantined bytes also land in
	// DirtyLost). RecoverySuperseded counts queued clean extents dropped
	// because a write overlapped them mid-recovery. ResidencyDrift counts
	// replayed extents absent from the residency snapshot — expected
	// post-snapshot movement, telemetry only. CDTRestored counts critical
	// records re-installed once warm. Recovering reports recovery still in
	// flight; TimeToWarm is how long the engine served degraded before the
	// clean queue drained. MetaTornWALBytes/MetaSnapQuarantined surface
	// the metadata store's own crash damage (truncated WAL tail, snapshot
	// rejected wholesale by its frame CRC).
	Snapshots           uint64
	SnapshotRecords     uint64
	RecoveredDirty      uint64
	RecoveredClean      uint64
	RecoveredBytes      int64
	QuarantinedRecords  uint64
	QuarantinedBytes    int64
	RecoverySuperseded  uint64
	ResidencyDrift      uint64
	CDTRestored         uint64
	Recovering          bool
	TimeToWarm          time.Duration
	MetaTornWALBytes    int64
	MetaSnapQuarantined bool
}

// Stats returns a snapshot of the instance counters, folding in the
// PFS-layer retry counts, the metadata store's replay count, and any
// still-open degraded interval.
func (s *S4D) Stats() Stats {
	st := s.stats
	st.Retries = s.opfs.Stats().Retries + s.cpfs.Stats().Retries
	if s.metaStore != nil {
		ms := s.metaStore.Stats()
		st.WALReplays = uint64(ms.RecoveredRecords)
		st.MetaGroupCommits = ms.GroupCommits
		st.MetaGroupedRecords = ms.GroupedRecords
		st.MetaTornWALBytes = ms.TornWALBytes
		st.MetaSnapQuarantined = ms.SnapQuarantined
	}
	ds := s.dmt.Stats()
	st.MetaResidentBytes = ds.ResidentBytes
	st.MetaMemoryBytes = ds.MemoryBytes
	st.MetaSpilledFiles = ds.SpilledFiles
	st.MetaSpills = ds.Spills
	st.MetaFaultInsTable = ds.FaultIns
	st.MetaSpillQuarantined = ds.SpillQuarantined
	st.Recovering = s.recovering
	if s.degraded() {
		st.DegradedTime += s.eng.Now() - s.degradedSince
	}
	st.CachePolicy = s.space.PolicyName()
	st.CacheTouches = s.space.Touches()
	st.CacheEvictions = s.space.Evictions()
	st.PolicyAdmitRejected = s.space.AdmitRejected()
	pc := s.space.PolicyCounters()
	st.PolicyGhostHits = pc.GhostHits
	st.PolicyPromotions = pc.Promotions
	st.PolicyQueueLen = s.space.PolicyQueueLen()
	return st
}

// CacheWriteShare returns the fraction of written bytes absorbed by the
// CServers — the paper's Table III "CServers %" for writes.
func (st Stats) CacheWriteShare() float64 {
	total := st.BytesWriteCache + st.BytesWriteDisk
	if total == 0 {
		return 0
	}
	return float64(st.BytesWriteCache) / float64(total)
}

// CacheReadShare returns the fraction of read bytes served by the
// CServers.
func (st Stats) CacheReadShare() float64 {
	total := st.BytesReadCache + st.BytesReadDisk
	if total == 0 {
		return 0
	}
	return float64(st.BytesReadCache) / float64(total)
}
