package pfs

import "repro/internal/sim"

// Op discriminates the kinds of per-request trace records the client path
// emits (see IORecord).
type Op uint8

// Record operation kinds.
const (
	// OpWrite and OpRead are client file requests.
	OpWrite Op = iota
	OpRead
	// OpBarrier marks one rank entering a collective barrier between
	// workload phases (emitted by the workload-program layer, not by pfs
	// itself). Off and Bytes are zero; Latency is the wait time.
	OpBarrier
)

func (o Op) String() string {
	switch o {
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpBarrier:
		return "barrier"
	}
	return "unknown"
}

// IORecord is one request-level trace record: the telemetry Darshan keeps
// per file region, at per-request granularity. The client path fills every
// field except Latency at issue time; EndRecord fills Latency at
// completion, so the file system stores exactly one record per request,
// appended once and patched once — no allocation beyond the backing slice.
type IORecord struct {
	// Time is the issue time (barrier records: the entry time).
	Time sim.Time
	// Latency is completion minus issue (barrier records: the wait time).
	Latency sim.Time
	// Off and Bytes are the request's file extent. Zero for barriers.
	Off   int64
	Bytes int64
	// App and Rank identify the issuing process.
	App  int32
	Rank int32
	// Server is the global ID of the single storage server the request
	// lands on, or -1 when the extent stripes over several (or for
	// barriers, which involve no server).
	Server int32
	// QD is the client's outstanding request count at issue, including
	// this request — the observed (not configured) queue depth.
	QD int32
	// Op is the record kind.
	Op Op
}

// Record turns request recording on with room for n records: from then
// on every client request, and every barrier core.BarrierWait runs, keeps
// one IORecord, appended at issue and completed in place. A run whose
// request count is known up front records without a single allocation.
func (fs *FileSystem) Record(n int) { fs.recs = make([]IORecord, 0, n) }

// Records returns the records kept so far, in issue order (nil while
// recording is off).
func (fs *FileSystem) Records() []IORecord { return fs.recs }

// BeginRecord appends rec, every field but Latency set at issue, and
// returns its index for EndRecord; while recording is off it keeps
// nothing and returns -1.
func (fs *FileSystem) BeginRecord(rec IORecord) int {
	if fs.recs == nil {
		return -1
	}
	fs.recs = append(fs.recs, rec)
	return len(fs.recs) - 1
}

// EndRecord fills in record idx's latency at completion; -1 does nothing.
func (fs *FileSystem) EndRecord(idx int) {
	if idx >= 0 {
		r := &fs.recs[idx]
		r.Latency = fs.E.Now() - r.Time
	}
}
