package s4dcache

// Stats is a snapshot of system-wide activity.
type Stats struct {
	// Reads and Writes count application requests.
	Reads, Writes uint64
	// BytesRead and BytesWritten count application payload bytes.
	BytesRead, BytesWritten int64
	// CacheWriteShare is the fraction of written bytes absorbed by the
	// CServers (0 on a stock system).
	CacheWriteShare float64
	// CacheReadShare is the fraction of read bytes served by the CServers.
	CacheReadShare float64
	// Admissions counts write segments admitted to the cache;
	// AdmitFailures counts segments denied for lack of space.
	Admissions, AdmitFailures uint64
	// Flushes and Fetches count Rebuilder data movements.
	Flushes, Fetches uint64
	// CacheUsedBytes and CacheDirtyBytes describe the cache space.
	CacheUsedBytes, CacheDirtyBytes int64
	// DMTEntries is the number of live cache mappings.
	DMTEntries int
	// DServerShare and CServerShare split traced sub-request bytes
	// between the two file systems (requires Options.Trace).
	DServerShare, CServerShare float64
	// DServerSequentiality is the fraction of traced DServer sub-requests
	// that continue the previous access (requires Options.Trace).
	DServerSequentiality float64
}

// Stats returns a snapshot of the system's counters.
func (s *System) Stats() Stats {
	var out Stats
	if s4d := s.tb.S4D; s4d != nil {
		st := s4d.Stats()
		out.Reads = st.Reads
		out.Writes = st.Writes
		out.BytesRead = st.BytesRead
		out.BytesWritten = st.BytesWritten
		out.CacheWriteShare = st.CacheWriteShare()
		out.CacheReadShare = st.CacheReadShare()
		out.Admissions = st.Admissions
		out.AdmitFailures = st.AdmitFailures
		out.Flushes = st.Flushes
		out.Fetches = st.Fetches
		sp := s4d.Space().Stats()
		out.CacheUsedBytes = sp.UsedBytes
		out.CacheDirtyBytes = sp.DirtyBytes
		out.DMTEntries = s4d.DMT().Entries()
	} else {
		fsStats := s.tb.OPFS.Stats()
		out.Reads = 0
		out.Writes = fsStats.Requests // stock: no read/write split at FS level
		out.BytesRead = fsStats.BytesRead
		out.BytesWritten = fsStats.BytesWritten
	}
	if rec := s.tb.Recorder; rec != nil {
		d := rec.Distribute(0, 0)
		out.DServerShare = d.ByteShare("OPFS")
		out.CServerShare = d.ByteShare("CPFS")
		out.DServerSequentiality = rec.Sequentiality("OPFS")
	}
	return out
}
