package pfs

import (
	"errors"

	"repro/internal/fault"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/storage"
)

// ErrUnavailable is returned by the retrying RPC path when a request's
// retries against some server are exhausted (deadline expirations beyond
// MaxRetries, or the application's retry budget ran dry). The caller is
// expected to stall and re-issue — see fault.RetryPolicy.Resume.
var ErrUnavailable = errors.New("pfs: service unavailable")

// ClientAvail are one application's client-side availability counters:
// request deadline expirations, the resends they triggered, and the
// sub-requests that gave up with ErrUnavailable.
type ClientAvail struct {
	Timeouts int64
	Retries  int64
	Failures int64
}

// subOp event ops (subOp implements sim.Target: op selects deadline fire
// vs. scheduled resend; `a` carries the attempt number so stale events —
// from attempts already answered or superseded — are recognized and
// dropped. Timers are never cancelled, only outlived, which keeps the
// retry machinery allocation-free: arming is a plain engine event with no
// closure).
const (
	opDeadline = iota
	opResend
)

// subOp is one retrying request's share on one server: the unit of
// deadline/retry. The client sends the sub-request's chunks, arms a
// deadline, and on expiry resends everything under a fresh srvReqState with
// capped exponential backoff. Replies are accepted from ANY attempt — a
// slow-but-alive server's late replies still complete the sub-request, so
// an overloaded (not crashed) server cannot livelock the client into
// retrying forever.
type subOp struct {
	req    *clientReq
	cl     *Client
	conn   *netsim.Conn
	fileID storage.FileID
	chunks []Run
	bytes  int64
	read   bool
	expect int // replies that complete one attempt

	st      *srvReqState // current (latest) attempt
	attempt int64
	backoff sim.Time
	done    bool
}

// rp returns the deployment's retry policy (EnableRetry installed it).
func (so *subOp) rp() *fault.RetryPolicy { return so.cl.fs.Retry }

// send transmits one attempt: a fresh wire-visible request state (the
// previous attempt's may be dead at the server) and all chunks, then arms
// the attempt's deadline.
func (so *subOp) send() {
	fs := so.cl.fs
	st := &srvReqState{
		remaining: len(so.chunks), bytes: so.bytes,
		issued: fs.jitteredIssue(), sub: so,
		issueAt: fs.E.Now(), read: so.read,
	}
	so.st = st
	for _, ck := range so.chunks {
		so.conn.Send(&newChunk(so.req, st, so.fileID, ck, so.read).msg)
	}
	fs.E.AtCall(fs.E.Now()+so.rp().Deadline, so, opDeadline, so.attempt, 0)
}

// reply accounts one reply answering attempt st. Completion is per
// attempt: whichever attempt first accumulates the expected replies wins.
func (so *subOp) reply(st *srvReqState) {
	st.cgot++
	if so.done || st.cgot < so.expect {
		return
	}
	so.done = true
	so.req.subDone()
}

// OnEvent implements sim.Target: deadline expiry and scheduled resends.
func (so *subOp) OnEvent(op uint32, a, b int64) {
	if so.done || a != so.attempt {
		return // stale: answered, or superseded by a newer attempt
	}
	fs := so.cl.fs
	rp := so.rp()
	switch op {
	case opDeadline:
		fs.noteTimeout(so.cl.App)
		if so.attempt >= int64(rp.MaxRetries) || !fs.takeRetry(so.cl.App) {
			so.done = true
			fs.noteFailure(so.cl.App)
			so.req.err = ErrUnavailable
			so.req.subDone()
			return
		}
		so.attempt++
		fs.E.AtCall(fs.E.Now()+so.backoff, so, opResend, so.attempt, 0)
		so.backoff *= 2
		if so.backoff > rp.BackoffMax {
			so.backoff = rp.BackoffMax
		}
	case opResend:
		so.send()
	}
}

// ioRetry is the retrying twin of ioAsync: same striping and chunking, but
// each server's share becomes a subOp with deadline/backoff/retry, and the
// completion callback carries an error (nil, or ErrUnavailable when some
// share exhausted its retries).
func (cl *Client) ioRetry(f *File, off, size int64, read bool, onErr func(error)) {
	plans := f.plan(off, size)
	if len(plans) == 0 {
		cl.fs.E.Schedule(0, func() { onErr(nil) })
		return
	}
	req := cl.begin(f, plans, off, size, read)
	req.onErr = onErr
	req.remaining = len(plans) // one subDone per server share
	req.subs = make([]subOp, len(plans))
	rp := cl.fs.Retry
	for i, p := range plans {
		srv := f.servers[p.pos]
		var bytes int64
		for _, ck := range p.chunks {
			bytes += ck.Size
		}
		expect := 1 // writes: one reply per server share
		if read {
			expect = len(p.chunks) // reads: one data reply per chunk
		}
		so := &req.subs[i]
		*so = subOp{
			req: req, cl: cl, conn: cl.ConnTo(srv),
			fileID: f.locals[p.pos], chunks: p.chunks, bytes: bytes,
			read: read, expect: expect, backoff: rp.Backoff,
		}
		so.send()
	}
}

// WriteAsyncRetry issues a write on the retrying RPC path; onErr fires once
// with nil on success or ErrUnavailable when retries were exhausted.
// Requires FileSystem.EnableRetry.
func (cl *Client) WriteAsyncRetry(f *File, off, size int64, onErr func(error)) {
	cl.ioRetry(f, off, size, false, onErr)
}

// ReadAsyncRetry is the read twin of WriteAsyncRetry.
func (cl *Client) ReadAsyncRetry(f *File, off, size int64, onErr func(error)) {
	cl.ioRetry(f, off, size, true, onErr)
}

// WriteRetry performs a blocking write on the retrying RPC path.
func (cl *Client) WriteRetry(p *sim.Proc, f *File, off, size int64) error {
	var done sim.Signal
	var err error
	cl.WriteAsyncRetry(f, off, size, func(e error) { err = e; done.Fire(cl.fs.E) })
	p.Await(&done)
	return err
}

// ReadRetry performs a blocking read on the retrying RPC path.
func (cl *Client) ReadRetry(p *sim.Proc, f *File, off, size int64) error {
	var done sim.Signal
	var err error
	cl.ReadAsyncRetry(f, off, size, func(e error) { err = e; done.Fire(cl.fs.E) })
	p.Await(&done)
	return err
}

// Retrying reports whether the deployment has a retry policy installed
// (workload drivers switch to the retrying path when it does).
func (cl *Client) Retrying() bool { return cl.fs.Retry != nil }

// RetryPolicy returns the deployment's retry policy (nil when retry is
// off).
func (cl *Client) RetryPolicy() *fault.RetryPolicy { return cl.fs.Retry }
