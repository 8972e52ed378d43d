package pfs

import (
	"repro/internal/netsim"
	"repro/internal/sim"
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
	conns    map[int]*netsim.Conn // server ID -> connection
	inflight int32                // outstanding requests (observed queue depth)
}

// NewClient registers a client process running on host for application app.
func (fs *FileSystem) NewClient(host *netsim.Host, app int) *Client {
	fs.nextClient++
	return &Client{
		ID:    fs.nextClient,
		App:   app,
		Host:  host,
		fs:    fs,
		conns: make(map[int]*netsim.Conn),
	}
}

// ConnTo returns (dialing lazily) the connection to srv. PVFS keeps one
// BMI/TCP connection per client-server pair; so do we — the connection
// count is the incast fan-in. Probes use it to attach window traces before
// a run.
func (cl *Client) ConnTo(srv *Server) *netsim.Conn {
	if c, ok := cl.conns[srv.ID]; ok {
		return c
	}
	c := cl.fs.Fabric.Dial(cl.Host, srv.Host, cl.App)
	c.OnReadable = srv.onReadable
	cl.conns[srv.ID] = c
	return c
}

// Conns returns the client's dialed connections (for probes).
func (cl *Client) Conns() map[int]*netsim.Conn { return cl.conns }

// WriteAsync issues a write of [off, off+size) on f and calls onDone when
// every involved server has acknowledged. It is the building block for
// pipelined request streams.
func (cl *Client) WriteAsync(f *File, off, size int64, onDone func()) {
	cl.ioAsync(f, off, size, false, onDone)
}

// ReadAsync issues a read of [off, off+size) on f; onDone fires when all
// data chunks have been returned. (Read workloads are the paper's stated
// future work; the path mirrors writes with data on the reply direction.)
func (cl *Client) ReadAsync(f *File, off, size int64, onDone func()) {
	cl.ioAsync(f, off, size, true, onDone)
}

// Outstanding returns the client's in-flight request count (observed queue
// depth, the QD field of its trace records).
func (cl *Client) Outstanding() int { return int(cl.inflight) }

// srvPlan is one server's share of a request: the server's position in
// the file's server list and the share's flow-sized chunks.
type srvPlan struct {
	pos    int
	chunks []Run
}

// plan carves [off, off+size) of f into each involved server's chunks of
// at most that server's flow buffer size, in server-position order. A
// first pass counts the servers and chunks, so the plans and all their
// chunks take one exactly sized slice each.
func (f *File) plan(off, size int64) []srvPlan {
	servers, total := 0, int64(0)
	for pos, r := range f.layout.shares(off, size) {
		flow := f.servers[pos].P.FlowBufSize
		servers++
		total += (r.Size + flow - 1) / flow
	}
	if servers == 0 {
		return nil
	}
	plans := make([]srvPlan, 0, servers)
	chunks := make([]Run, 0, total)
	for pos, r := range f.layout.shares(off, size) {
		flow := f.servers[pos].P.FlowBufSize
		from := len(chunks)
		for o := int64(0); o < r.Size; o += flow {
			chunks = append(chunks, Run{Local: r.Local + o, Size: min(flow, r.Size-o)})
		}
		plans = append(plans, srvPlan{pos: pos, chunks: chunks[from:len(chunks):len(chunks)]})
	}
	return plans
}

// begin opens a request that reaches at least one server: it counts the
// request in flight and, when a trace sink is attached, opens its trace
// record.
func (cl *Client) begin(f *File, plans []srvPlan, off, size int64, read bool) *clientReq {
	req := &clientReq{cl: cl, recIdx: -1}
	cl.inflight++
	if s := cl.fs.Sink; s != nil {
		srv := int32(-1)
		if len(plans) == 1 {
			srv = int32(f.servers[plans[0].pos].ID)
		}
		op := OpWrite
		if read {
			op = OpRead
		}
		req.recIdx = s.BeginRequest(IORecord{
			Time: cl.fs.E.Now(), Off: off, Bytes: size,
			App: int32(cl.App), Rank: int32(cl.Rank), Server: srv,
			QD: cl.inflight, Op: op,
		})
	}
	return req
}

func (cl *Client) ioAsync(f *File, off, size int64, read bool, onDone func()) {
	plans := f.plan(off, size)
	if len(plans) == 0 {
		cl.fs.E.Schedule(0, onDone)
		return
	}
	req := cl.begin(f, plans, off, size, read)
	req.onDone = onDone
	// Writes: one reply per server. Reads: one reply per chunk (each reply
	// carries a chunk of data).
	if read {
		for _, p := range plans {
			req.remaining += len(p.chunks)
		}
	} else {
		req.remaining = len(plans)
	}
	for _, p := range plans {
		srv := f.servers[p.pos]
		conn := cl.ConnTo(srv)
		var bytes int64
		for _, ck := range p.chunks {
			bytes += ck.Size
		}
		st := &srvReqState{
			remaining: len(p.chunks), bytes: bytes,
			issued:  cl.fs.jitteredIssue(),
			issueAt: cl.fs.E.Now(), read: read,
		}
		for _, ck := range p.chunks {
			conn.Send(&newChunk(req, st, f.locals[p.pos], ck, read).msg)
		}
	}
}

// Write performs a blocking write from within a simulated process.
func (cl *Client) Write(p *sim.Proc, f *File, off, size int64) {
	var done sim.Signal
	cl.WriteAsync(f, off, size, func() { done.Fire(cl.fs.E) })
	p.Await(&done)
}

// Read performs a blocking read from within a simulated process.
func (cl *Client) Read(p *sim.Proc, f *File, off, size int64) {
	var done sim.Signal
	cl.ReadAsync(f, off, size, func() { done.Fire(cl.fs.E) })
	p.Await(&done)
}
