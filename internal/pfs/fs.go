package pfs

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/storage"
)

// FileSystem ties a set of storage servers into one deployment and hands
// out files and clients. It corresponds to one mounted PVFS volume.
type FileSystem struct {
	E       *sim.Engine
	Fabric  *netsim.Fabric
	Servers []*Server

	// Rand and IssueJitter model network/scheduling noise: each request's
	// per-server queue position is perturbed by up to IssueJitter. This
	// decorrelates the service order across servers — the reason a request
	// striped over many servers completes at the pace of its slowest
	// server (the paper's stripe-size and request-size effects, §IV-A6/7).
	Rand        *sim.Rand
	IssueJitter sim.Time

	// Retry, when non-nil, is the deployment's client RPC retry policy
	// (installed by EnableRetry): every client request then arms per-share
	// reply deadlines and stalls and resumes when it runs out of retries.
	// nil arms nothing, keeping the request path bit-identical to a
	// pre-fault deployment.
	Retry *fault.RetryPolicy

	// recs are the request records while recording is on (Record); nil —
	// the default — keeps the request path record-free.
	recs []IORecord

	nextClient int
	avail      []ClientAvail // per-application client-side availability
	budget     []int64       // per-application remaining retry budget
}

// EnableRetry installs the client RPC retry policy (defaults applied).
func (fs *FileSystem) EnableRetry(rp fault.RetryPolicy) {
	p := rp.WithDefaults()
	fs.Retry = &p
}

// growApp ensures the per-application availability state covers app.
func (fs *FileSystem) growApp(app int) {
	for len(fs.avail) <= app {
		fs.avail = append(fs.avail, ClientAvail{})
		b := int64(0)
		if fs.Retry != nil {
			b = fs.Retry.Budget
		}
		fs.budget = append(fs.budget, b)
	}
}

// noteTimeout counts one sub-request deadline expiry for app.
func (fs *FileSystem) noteTimeout(app int) {
	fs.growApp(app)
	fs.avail[app].Timeouts++
}

// noteFailure counts one sub-request that ran out of retries.
func (fs *FileSystem) noteFailure(app int) {
	fs.growApp(app)
	fs.avail[app].Failures++
}

// takeRetry consumes one unit of app's retry budget, counting the resend.
// A non-positive configured budget is unlimited.
func (fs *FileSystem) takeRetry(app int) bool {
	fs.growApp(app)
	if fs.Retry != nil && fs.Retry.Budget > 0 {
		if fs.budget[app] <= 0 {
			return false
		}
		fs.budget[app]--
	}
	fs.avail[app].Retries++
	return true
}

// ClientAvailFor returns app's client-side availability counters (zero
// value if unobserved).
func (fs *FileSystem) ClientAvailFor(app int) ClientAvail {
	if app < 0 || app >= len(fs.avail) {
		return ClientAvail{}
	}
	return fs.avail[app]
}

// TotalClientAvail sums the client-side availability counters over all
// applications.
func (fs *FileSystem) TotalClientAvail() ClientAvail {
	var t ClientAvail
	for _, a := range fs.avail {
		t.Timeouts += a.Timeouts
		t.Retries += a.Retries
		t.Failures += a.Failures
	}
	return t
}

// jitteredIssue returns the request's queue-ordering timestamp for one
// server.
func (fs *FileSystem) jitteredIssue() sim.Time {
	t := fs.E.Now()
	if fs.Rand != nil && fs.IssueJitter > 0 {
		t += sim.Time(fs.Rand.Int63n(int64(fs.IssueJitter)))
	}
	return t
}

// NewFileSystem assembles a deployment from already-built servers.
func NewFileSystem(e *sim.Engine, fabric *netsim.Fabric, servers []*Server) *FileSystem {
	return &FileSystem{E: e, Fabric: fabric, Servers: servers}
}

// File is a striped file. Its data is distributed round-robin over a fixed
// list of servers (possibly a subset of the deployment — the paper's
// "targeted servers" experiment partitions servers between applications).
type File struct {
	Name    string
	fs      *FileSystem
	servers []*Server
	layout  Layout
	locals  []storage.FileID // per server position
}

// CreateFile creates a file striped over the servers at the given indexes
// with the given stripe size. A nil or empty index list means all servers.
func (fs *FileSystem) CreateFile(name string, serverIdx []int, stripe int64) *File {
	if stripe <= 0 {
		panic("pfs: stripe must be positive")
	}
	if len(serverIdx) == 0 {
		serverIdx = make([]int, len(fs.Servers))
		for i := range serverIdx {
			serverIdx[i] = i
		}
	}
	f := &File{
		Name:    name,
		fs:      fs,
		servers: make([]*Server, len(serverIdx)),
		layout:  Layout{Width: len(serverIdx), Stripe: stripe},
		locals:  make([]storage.FileID, len(serverIdx)),
	}
	for pos, idx := range serverIdx {
		if idx < 0 || idx >= len(fs.Servers) {
			panic(fmt.Sprintf("pfs: server index %d out of range", idx))
		}
		f.servers[pos] = fs.Servers[idx]
		f.locals[pos] = fs.Servers[idx].newFileID()
	}
	return f
}

// Layout returns the file's striping parameters.
func (f *File) Layout() Layout { return f.layout }

// Servers returns the servers the file is striped over.
func (f *File) Servers() []*Server { return f.servers }
