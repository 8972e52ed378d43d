package pfs

import (
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/storage"
)

// chunkMsg is one flow-protocol chunk of a request: its wire message and
// the metadata that rides along for free (headers are negligible next to
// 64 KiB+ payloads). The message is embedded and its Meta points back at
// the chunk, so sending a chunk is one allocation. The chunk is read-only
// once sent — both the client and the server shard read it — and it is
// the sim.Target of two events: its transfer over the server's CPU line
// (server side) and the reply it carries back (client side).
type chunkMsg struct {
	msg      netsim.Message
	req      *clientReq
	srvState *srvReqState
	fileID   storage.FileID
	local    int64
	size     int64
	read     bool // read request descriptor instead of write payload
}

// newChunk builds the chunk of a request share st covering [local,
// local+size) of the server-local file. A read chunk puts only its
// descriptor on the wire.
func newChunk(req *clientReq, st *srvReqState, file storage.FileID, ck Run, read bool) *chunkMsg {
	c := &chunkMsg{
		req: req, srvState: st, fileID: file,
		local: ck.Local, size: ck.Size, read: read,
	}
	c.msg.Size = ck.Size
	if read {
		c.msg.Size = reqDescriptorBytes
	}
	c.msg.Meta = c
	return c
}

// reqDescriptorBytes is the wire size of a read request descriptor.
const reqDescriptorBytes = 128

// chunkMsg event ops.
const (
	opStore uint32 = iota // server: the chunk crossed the CPU line
	opReply               // client: the reply answering the chunk arrived
)

// OnEvent implements sim.Target. opStore hands the chunk to the backend;
// opReply is the server's reply for the chunk's request share — sent for
// the last stored chunk of a write and for every chunk of a read — and
// runs on the client side. Replies are routed by attempt (the chunk's
// srvState), so the retry layer can ignore replies to attempts it already
// gave up on.
func (ck *chunkMsg) OnEvent(op uint32, a, b int64) {
	st := ck.srvState
	if op == opReply {
		if st.sub != nil {
			st.sub.reply(st)
			return
		}
		ck.req.replied()
		return
	}
	st.srv.store(st.conn, ck)
}

// srvReqState tracks one client request's share on one server. The client
// creates it with the chunk count; the server fills in its scheduling state
// (the simulation is single-address-space, so the struct plays both the
// wire-visible request descriptor and the server's flow bookkeeping).
type srvReqState struct {
	remaining int      // chunks not yet stored (write) or returned (read)
	bytes     int64    // total data bytes of this request's share here
	issued    sim.Time // when the client issued the request
	issueAt   sim.Time // client clock at issue (unjittered; Span.Issue)
	read      bool     // read request (client-written; Span.Read)

	// Server-side flow scheduling state.
	srv      *Server
	conn     *netsim.Conn
	arrived  bool
	active   bool
	dead     bool     // killed by a server crash; chunks are discarded
	inflight int      // chunks being processed/stored right now
	arriveAt sim.Time // server clock at arrival (Span.Arrive)
	grantAt  sim.Time // server clock at flow-slot grant (Span.Grant)
	// pending holds the readable chunks not yet pulled from the socket.
	pending netsim.MsgQueue

	// Client-side retry state (only set on the retrying RPC path). sub is
	// the sub-request this attempt belongs to; cgot counts replies received
	// for this attempt. These fields are written exclusively by client-shard
	// events, the fields above exclusively by server-shard events — the
	// struct is the wire-visible descriptor both sides annotate, and the
	// field-level split is what keeps it race-free under sharding.
	sub  *subOp
	cgot int
}

// clientReq is the client-side handle of an in-flight request. cl and
// recIdx tie the completion back to the issuing client's outstanding count
// and, when a trace sink is attached, to the request's trace record (recIdx
// is -1 when recording is off). Zero-extent requests never reach a server
// and get no clientReq.
//
// Exactly one of onDone/onErr is set: onDone on the legacy path (remaining
// counts replies), onErr on the retrying RPC path (remaining counts
// sub-requests; err carries ErrUnavailable if any of them failed).
type clientReq struct {
	remaining int // replies (legacy) or sub-requests (retry) still expected
	onDone    func()
	onErr     func(error)
	cl        *Client
	recIdx    int
	err       error
	subs      []subOp
}

func (r *clientReq) replied() {
	r.remaining--
	if r.remaining != 0 {
		return
	}
	r.finish()
	if r.onDone != nil {
		r.onDone()
	}
}

// subDone accounts one finished (completed or failed) sub-request of a
// retrying request.
func (r *clientReq) subDone() {
	r.remaining--
	if r.remaining != 0 {
		return
	}
	r.finish()
	if r.onErr != nil {
		r.onErr(r.err)
	}
}

func (r *clientReq) finish() {
	r.cl.inflight--
	if s := r.cl.fs.Sink; s != nil && r.recIdx >= 0 {
		s.EndRequest(r.recIdx)
	}
}
