package pfs

import (
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/storage"
)

// chunkMsg is one flow-protocol chunk of a request share: its wire message
// and its extent [local, local+size) in the server-local file (headers are
// negligible next to 64 KiB+ payloads). A share's chunks live in one slab,
// its srvReqState's chunks, in stream order; what they have in common —
// the request, the file, the read flag — lives on the share. The message
// is embedded and its Meta points back at the chunk. The chunk is
// read-only once sent — both the client and the server shard read it —
// and it is the sim.Target of two events: its transfer over the server's
// CPU line (server side) and the reply it carries back (client side).
type chunkMsg struct {
	msg   netsim.Message
	st    *srvReqState
	local int64
	size  int64
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
// share, st), so the retry layer can ignore replies to attempts it already
// gave up on.
func (ck *chunkMsg) OnEvent(op uint32, a, b int64) {
	st := ck.st
	if op == opReply {
		if st.sub != nil {
			st.sub.reply(st)
			return
		}
		st.req.replied()
		return
	}
	st.srv.store(st.conn, ck)
}

// srvReqState tracks one attempt at a client request's share on one
// server (the simulation is single-address-space, so the struct plays both
// the wire-visible request descriptor and the server's flow bookkeeping).
// The client writes the first block of fields, the chunk slab included,
// before it sends the share's first chunk, and each chunk before its own
// Send; after that only the server writes the block below it. The last
// block is the client's again. That field-level split is what keeps the
// struct race-free under sharding.
type srvReqState struct {
	req     *clientReq
	file    storage.FileID
	read    bool     // read request: chunks carry descriptors, replies data
	bytes   int64    // total data bytes of this request's share here
	issued  sim.Time // when the client issued the request
	issueAt sim.Time // client clock at issue (unjittered; the span's start)
	// chunks is the share's chunk slab, in stream order: a share's chunks
	// are sent back to back on one connection.
	chunks []chunkMsg

	// Server-side flow scheduling state. remaining starts at the chunk
	// count (client-written at creation) and counts the chunks not yet
	// stored (write) or returned (read).
	remaining int
	srv       *Server
	conn      *netsim.Conn
	arrived   bool
	active    bool
	dead      bool     // killed by a server crash; chunks are discarded
	inflight  int      // chunks being processed/stored right now
	arriveAt  sim.Time // server clock at arrival (net stage ends)
	grantAt   sim.Time // server clock at flow-slot grant (queue stage ends)
	// next and readable are the server's cursors into chunks: chunks
	// [0, readable) have been announced readable, and [next, readable)
	// are still unread in the socket. The connection announces a share's
	// chunks in stream order, the slab's order, so the readable chunks
	// not yet pulled are always that one window.
	next, readable int

	// Client-side retry state (only set under a retry policy). sub is
	// the sub-request this attempt belongs to; cgot counts replies received
	// for this attempt.
	sub  *subOp
	cgot int
}

// clientReq is the client-side handle of an in-flight request. cl and
// recIdx tie the completion back to the issuing client's outstanding count
// and, while the file system records, to the request's record (recIdx is
// -1 when recording is off). Zero-extent requests never reach a server
// and get no clientReq.
//
// remaining counts the replies still expected or, under a retry policy,
// the server shares (subs) not yet finished. failed records that some
// share ran out of retries; reissue, set for asynchronous callers under a
// retry policy, issues a failed request again.
type clientReq struct {
	remaining int
	onDone    func()
	reissue   func()
	cl        *Client
	recIdx    int
	failed    bool
	subs      []subOp
}

// replied accounts one reply or, under a retry policy, one finished share.
// The last one completes the request: a failed request with a reissue goes
// out again the policy's Resume later, and any other runs onDone.
func (r *clientReq) replied() {
	r.remaining--
	if r.remaining != 0 {
		return
	}
	cl := r.cl
	cl.inflight--
	cl.fs.EndRecord(r.recIdx)
	if r.failed && r.reissue != nil {
		cl.fs.E.Schedule(cl.fs.Retry.Resume, r.reissue)
		return
	}
	r.onDone()
}
