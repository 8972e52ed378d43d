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
	c.OnReply = func(meta interface{}) {
		r := meta.(*replyMsg)
		if r.st != nil && r.st.sub != nil {
			r.st.sub.reply(r.st)
			return
		}
		r.req.replied()
	}
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

func (cl *Client) ioAsync(f *File, off, size int64, read bool, onDone func()) {
	perSrv := f.layout.PerServer(off, size)
	req := &clientReq{onDone: onDone, recIdx: -1}

	type srvPlan struct {
		pos    int
		chunks []Run
	}
	var plans []srvPlan
	for pos, runs := range perSrv {
		if len(runs) == 0 {
			continue
		}
		flow := f.servers[pos].P.FlowBufSize
		var chunks []Run
		for _, r := range runs {
			for o := int64(0); o < r.Size; o += flow {
				n := flow
				if rem := r.Size - o; rem < n {
					n = rem
				}
				chunks = append(chunks, Run{Local: r.Local + o, Size: n})
			}
		}
		plans = append(plans, srvPlan{pos: pos, chunks: chunks})
	}
	if len(plans) == 0 {
		cl.fs.E.Schedule(0, onDone)
		return
	}
	req.cl = cl
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
			meta := &chunkMsg{
				req: req, srvState: st, fileID: f.locals[p.pos],
				local: ck.Local, size: ck.Size, read: read,
			}
			wire := ck.Size
			if read {
				wire = reqDescriptorBytes // only the descriptor goes out
			}
			conn.Send(&netsim.Message{Size: wire, Meta: meta})
		}
	}
}

// reqDescriptorBytes is the wire size of a read request descriptor.
const reqDescriptorBytes = 128

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
