// Package storage models backend storage devices of an HPC storage server:
// rotational disks (with head position, seek costs and elevator-style
// batching), SSDs, RAM-backed storage, and the "null-aio" mode of PVFS that
// discards data. It also models the kernel write-back cache used when file
// synchronization is disabled ("Sync OFF" in the paper).
//
// The device models are deliberately first-order: the paper's disk-level
// interference is seek amplification caused by interleaved request streams,
// which these models reproduce without simulating real geometry.
package storage

import "repro/internal/sim"

// FileID identifies a local byte stream (a "bstream" in PVFS terms) stored
// on a device. Different applications write different files; a shared MPI
// file still maps to one bstream per server.
type FileID int32

// StreamID tags the logical origin of a request (application/flow); devices
// use it only for statistics.
type StreamID int32

// Request is a single device I/O operation. Done runs (as a simulation
// event) when the operation completes.
type Request struct {
	File   FileID
	Offset int64
	Size   int64
	Stream StreamID
	Read   bool
	Done   func()

	// prev and next link the request into the HDD's submission-order list
	// while it is queued there; both are nil otherwise.
	prev, next *Request
}

// End returns the first byte offset after the request.
func (r *Request) End() int64 { return r.Offset + r.Size }

// Stats are cumulative per-device counters.
type Stats struct {
	Ops   int64
	Bytes int64
	Seeks int64    // head repositionings (HDD only)
	Busy  sim.Time // total time the device was servicing requests
}

// Device is a storage backend accepting asynchronous write/read requests.
type Device interface {
	// Name identifies the device kind ("hdd", "ssd", "ram", "null").
	Name() string
	// Submit enqueues a request; r.Done fires at completion. The device
	// holds no reference to r once r.Done has been called, so the caller
	// may reuse it from there on.
	Submit(r *Request)
	// Queued returns the number of requests waiting to enter service
	// (requests currently in service are excluded).
	Queued() int
	// QueuedBytes returns the bytes of the waiting requests.
	QueuedBytes() int64
	// Stats returns cumulative counters.
	Stats() Stats
}

// completion invokes r.Done if set.
func complete(r *Request) {
	if r.Done != nil {
		r.Done()
	}
}
