package pfs

import (
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Client is one application process using the file system. Clients on the
// same node share that node's Host (and therefore its NIC) — the paper's
// network-interface contention point.
type Client struct {
	ID   int
	App  int // application tag (0 or 1 in two-application experiments)
	Rank int // rank within the application (set by the experiment layer)
	Host *netsim.Host

	fs       *FileSystem
	conns    []*netsim.Conn // by server ID; nil until the first ConnTo
	inflight int32          // outstanding requests (observed queue depth)

	// done is the completion token of the client's blocking request: a
	// client is one process, so it has at most one. The request's
	// completion releases it (release, bound on the first blocking
	// request), and the process waits to acquire it.
	done    sim.Semaphore
	release func()
}

// NewClient registers a client process running on host for application app.
func (fs *FileSystem) NewClient(host *netsim.Host, app int) *Client {
	fs.nextClient++
	return &Client{ID: fs.nextClient, App: app, Host: host, fs: fs}
}

// ConnTo returns (dialing lazily) the connection to srv. PVFS keeps one
// BMI/TCP connection per client-server pair; so do we — the connection
// count is the incast fan-in. Probes use it to attach window traces before
// a run. A server's ID is its position in the file system's Servers.
func (cl *Client) ConnTo(srv *Server) *netsim.Conn {
	if cl.conns == nil {
		cl.conns = make([]*netsim.Conn, len(cl.fs.Servers))
	}
	if c := cl.conns[srv.ID]; c != nil {
		return c
	}
	c := cl.fs.Fabric.Dial(cl.Host, srv.Host, cl.App)
	c.OnReadable = srv.onReadableFn
	cl.conns[srv.ID] = c
	return c
}

// WriteAsync issues a write of [off, off+size) on f and calls onDone when
// every involved server has acknowledged. It is the building block for
// pipelined request streams. Under the deployment's retry policy a write
// that ran out of retries is issued again the policy's Resume later
// (stall-and-resume), and onDone runs only for the attempt that lands, so
// a caller's queue-depth slot stays held across the stall.
func (cl *Client) WriteAsync(f *File, off, size int64, onDone func()) {
	cl.ioAsync(f, off, size, false, onDone, true)
}

// ReadAsync issues a read of [off, off+size) on f; onDone fires when all
// data chunks have been returned. (Read workloads are the paper's stated
// future work; the path mirrors writes with data on the reply direction.)
// It stalls and resumes like WriteAsync.
func (cl *Client) ReadAsync(f *File, off, size int64, onDone func()) {
	cl.ioAsync(f, off, size, true, onDone, true)
}

// srvPlan is one server's share of a request: the server's position in
// the file's server list, the share's extent in the server-local file,
// and how many chunks of at most the server's flow buffer size carry it.
type srvPlan struct {
	pos    int
	run    Run
	chunks int
}

// plan carves [off, off+size) of f into each involved server's share, in
// server-position order, in one exactly sized slice.
func (f *File) plan(off, size int64) []srvPlan {
	n := f.layout.ServersTouched(off, size)
	if n == 0 {
		return nil
	}
	plans := make([]srvPlan, 0, n)
	for pos, r := range f.layout.shares(off, size) {
		flow := f.servers[pos].P.FlowBufSize
		plans = append(plans, srvPlan{pos: pos, run: r, chunks: int((r.Size + flow - 1) / flow)})
	}
	return plans
}

// begin opens a request that reaches at least one server: it counts the
// request in flight and, while the file system records, opens its record.
func (cl *Client) begin(f *File, plans []srvPlan, off, size int64, read bool) *clientReq {
	req := &clientReq{cl: cl, recIdx: -1}
	cl.inflight++
	if cl.fs.recs != nil {
		srv := int32(-1)
		if len(plans) == 1 {
			srv = int32(f.servers[plans[0].pos].ID)
		}
		op := OpWrite
		if read {
			op = OpRead
		}
		req.recIdx = cl.fs.BeginRecord(IORecord{
			Time: cl.fs.E.Now(), Off: off, Bytes: size,
			App: int32(cl.App), Rank: int32(cl.Rank), Server: srv,
			QD: cl.inflight, Op: op,
		})
	}
	return req
}

// ioAsync is the client's one request path: it sends each involved
// server its share of [off, off+size) and runs onDone when the request
// completes. Under the deployment's retry policy (FileSystem.Retry) every
// share is a subOp with its own reply deadline, and a request with a share
// that ran out of retries completes failed. With resume set, a failed
// request is issued again Resume later and onDone waits for the attempt
// that lands; without it, onDone runs on failure too and the caller reads
// the returned request's failed flag. A zero extent reaches no server: its
// onDone is scheduled at once and ioAsync returns nil.
func (cl *Client) ioAsync(f *File, off, size int64, read bool, onDone func(), resume bool) *clientReq {
	plans := f.plan(off, size)
	if len(plans) == 0 {
		cl.fs.E.Schedule(0, onDone)
		return nil
	}
	req := cl.begin(f, plans, off, size, read)
	req.onDone = onDone
	rp := cl.fs.Retry
	switch {
	case rp != nil:
		// One completion per server share.
		req.remaining = len(plans)
		req.subs = make([]subOp, len(plans))
		if resume {
			req.reissue = func() { cl.ioAsync(f, off, size, read, onDone, true) }
		}
	case read:
		// One reply per chunk (each reply carries a chunk of data).
		for _, p := range plans {
			req.remaining += p.chunks
		}
	default:
		// One reply per server.
		req.remaining = len(plans)
	}
	for i, p := range plans {
		srv, file := f.servers[p.pos], f.locals[p.pos]
		if rp == nil {
			req.sendShare(srv, file, p.run, p.chunks, read, nil)
			continue
		}
		expect := 1 // writes: one reply per server share
		if read {
			expect = p.chunks // reads: one data reply per chunk
		}
		so := &req.subs[i]
		*so = subOp{
			req: req, cl: cl, srv: srv, file: file, run: p.run, chunks: p.chunks,
			read: read, expect: expect, backoff: rp.Backoff,
		}
		so.send()
	}
	return req
}

// sendShare sends one attempt at the request's share run of file on srv,
// n chunks of at most srv's flow buffer size: a fresh wire-visible request
// state, whose slab holds every chunk, and each chunk in stream order. A
// read chunk puts only its descriptor on the wire. sub is the share's
// subOp under a retry policy, nil otherwise.
func (req *clientReq) sendShare(srv *Server, file storage.FileID, run Run, n int, read bool, sub *subOp) {
	fs := req.cl.fs
	st := &srvReqState{
		req: req, file: file, read: read, bytes: run.Size,
		issued: fs.jitteredIssue(), issueAt: fs.E.Now(),
		chunks: make([]chunkMsg, n), remaining: n, sub: sub,
	}
	conn := req.cl.ConnTo(srv)
	conn.Grow(n)
	flow := srv.P.FlowBufSize
	for i := range st.chunks {
		ck := &st.chunks[i]
		o := int64(i) * flow
		ck.st, ck.local, ck.size = st, run.Local+o, min(flow, run.Size-o)
		ck.msg.Size, ck.msg.Meta = ck.size, ck
		if read {
			ck.msg.Size = reqDescriptorBytes
		}
		conn.Send(&ck.msg)
	}
}

// Write performs a blocking write from within a simulated process. Under
// the deployment's retry policy a write that ran out of retries stalls the
// process for the policy's Resume and is issued again, until it lands.
func (cl *Client) Write(p *sim.Proc, f *File, off, size int64) {
	cl.ioWait(p, f, off, size, false)
}

// Read performs a blocking read from within a simulated process. It stalls
// and resumes like Write.
func (cl *Client) Read(p *sim.Proc, f *File, off, size int64) {
	cl.ioWait(p, f, off, size, true)
}

// ioWait issues one request and blocks p until it lands, sleeping out the
// retry policy's Resume on p before each re-issue of a failed attempt. The
// wait is the client's own, so a blocking request allocates nothing beyond
// what WriteAsync does; the completion wakes p with the same event a
// one-shot signal would.
func (cl *Client) ioWait(p *sim.Proc, f *File, off, size int64, read bool) {
	if cl.release == nil {
		cl.release = cl.done.Release
	}
	for {
		req := cl.ioAsync(f, off, size, read, cl.release, false)
		cl.done.Acquire(p)
		if req == nil || !req.failed {
			return
		}
		p.Sleep(cl.fs.Retry.Resume)
	}
}
