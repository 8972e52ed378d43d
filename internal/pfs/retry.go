package pfs

import (
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/storage"
)

// ClientAvail are one application's client-side availability counters:
// request deadline expirations, the resends they triggered, and the
// sub-requests that ran out of retries (deadline expirations beyond
// MaxRetries, or the application's retry budget ran dry), each of which
// failed its request into stall-and-resume.
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

// subOp is one request's share on one server under a retry policy: the
// unit of deadline/retry. The client sends the sub-request's chunks, arms a
// deadline, and on expiry resends everything under a fresh srvReqState with
// capped exponential backoff. Replies are accepted from ANY attempt — a
// slow-but-alive server's late replies still complete the sub-request, so
// an overloaded (not crashed) server cannot livelock the client into
// retrying forever.
type subOp struct {
	req    *clientReq
	cl     *Client
	srv    *Server
	file   storage.FileID
	run    Run // the share's extent in the server-local file
	chunks int // flow-buffer-sized chunks that carry it
	read   bool
	expect int // replies that complete one attempt

	attempt int64
	backoff sim.Time
	done    bool
}

// rp returns the deployment's retry policy (EnableRetry installed it).
func (so *subOp) rp() *fault.RetryPolicy { return so.cl.fs.Retry }

// send transmits one attempt under a fresh wire-visible request state (the
// previous attempt's may be dead at the server), then arms the attempt's
// deadline.
func (so *subOp) send() {
	fs := so.cl.fs
	so.req.sendShare(so.srv, so.file, so.run, so.chunks, so.read, so)
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
	so.req.replied()
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
			so.req.failed = true
			so.req.replied()
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
