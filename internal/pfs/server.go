package pfs

import (
	"fmt"
	"strings"

	"repro/internal/netsim"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/storage"
)

// SyncMode selects how a server persists incoming writes, mirroring the
// OrangeFS TroveSyncData setting plus the null-aio method.
type SyncMode int

// Sync modes.
const (
	// SyncOn flushes each operation to the device before replying.
	SyncOn SyncMode = iota
	// SyncOff acknowledges once data reaches the kernel write-back cache.
	SyncOff
	// NullAIO discards data immediately (PVFS's null-aio).
	NullAIO
)

func (m SyncMode) String() string {
	switch m {
	case SyncOn:
		return "sync-on"
	case SyncOff:
		return "sync-off"
	case NullAIO:
		return "null-aio"
	}
	return "unknown"
}

// ParseSyncMode converts a sync mode name ("on", "off" or "null-aio"; the
// empty string means on and "nullaio" is accepted too) to a SyncMode.
// Unknown names yield an error listing the valid set.
func ParseSyncMode(s string) (SyncMode, error) {
	switch strings.ToLower(s) {
	case "", "on":
		return SyncOn, nil
	case "off":
		return SyncOff, nil
	case "null-aio", "nullaio":
		return NullAIO, nil
	}
	return 0, fmt.Errorf("unknown sync mode %q (valid: on, off, null-aio)", s)
}

// ServerParams configures a storage server's software stack. The sync mode
// is not one of them: it is the platform's (cluster.Config.Sync), which
// also decides whether the server gets a write cache, so NewServer takes it
// as an argument.
type ServerParams struct {
	// FlowBufSize is the chunk size of the flow protocol; client requests
	// are carved into chunks of at most this many bytes, and a flow pulls
	// one chunk at a time from its socket.
	FlowBufSize int64
	// FlowBufs is the number of concurrent flows (requests being actively
	// served). Requests beyond it queue *unread in their sockets* — this
	// bound, not any explicit flow control in Trove, is what back-pressures
	// the network and collapses TCP windows when the backend is slow.
	FlowBufs int
	// FlowDepth caps how many chunks one flow keeps in flight toward the
	// device (PVFS flow buffers per flow).
	FlowDepth int
	// FlowPool is a shared pool of flow-buffer credits: each active flow
	// may keep up to max(1, min(FlowDepth, FlowPool/activeFlows)) chunks in
	// flight. Few concurrent streams therefore pipeline deeply (long
	// sequential runs at the disk); many streams fragment into short runs —
	// the single-application cost of many writers per node (Figure 4).
	FlowPool int
	// CPUPerChunk is the fixed request-processing cost per chunk.
	CPUPerChunk sim.Time
	// CPUBytesPerSec is the server's memory/protocol processing rate.
	CPUBytesPerSec float64
	// RespBytes is the size of the reply message.
	RespBytes int64
	// QoS selects the scheduler that grants free flow slots, and tunes it
	// (see internal/qos). The zero value (qos.Off) is PVFS's FIFO; the
	// related work's coordinated orders (qos.AppOrdered, qos.RoundRobin)
	// and the mitigation schedulers are the other kinds. Its FlowSlots
	// knob, when set, overrides FlowBufs; its pipeline lever
	// (qos.Params.InflightChunks) acts per application through the
	// DepthAdvisor, on top of the unchanged per-flow FlowDepth.
	QoS qos.Params
}

// DefaultServerParams models OrangeFS 2.8.3 on the paper's hardware.
func DefaultServerParams() ServerParams {
	return ServerParams{
		FlowBufSize:    256 << 10,
		FlowBufs:       16,
		FlowDepth:      16,
		FlowPool:       64,
		CPUPerChunk:    120 * sim.Microsecond,
		CPUBytesPerSec: 1600e6,
		RespBytes:      160,
	}
}

// Server is one PVFS storage daemon: a host on the fabric, a CPU, a flow
// layer serving at most FlowBufs requests concurrently, and a backend
// (device, cache or null). Which queued request gets a free flow slot is
// decided by the qos.Scheduler that ServerParams.QoS selects.
type Server struct {
	E    *sim.Engine
	ID   int
	Host *netsim.Host
	P    ServerParams

	// Dev is the backend device (used directly with SyncOn, and for reads).
	Dev storage.Device
	// Cache is the write-back cache (used with SyncOff; nil otherwise).
	Cache *storage.WriteCache
	// Tel is the server's telemetry probe layer: per-application request,
	// queue and byte counters plus the device view. Always on (the
	// counters are cheap); QoS schedulers and tests read it. Each finished
	// request share hands it the share's issue, arrival, grant and reply
	// times, which it totals per application once span counting is on
	// (qos.Telemetry.CountSpans).
	Tel *qos.Telemetry

	sync       SyncMode
	cpu        *sim.Line
	freeFlows  int
	reqQueue   []*srvReqState
	nextFileID storage.FileID
	sched      qos.Scheduler
	adv        qos.DepthAdvisor // s.sched's depth lever, nil if not offered
	qview      []qos.Request    // reusable scheduler view of reqQueue
	// onReadableFn is s.onReadable, bound once: every connection dialing
	// the server shares this one method value.
	onReadableFn func(*netsim.Conn, *netsim.Message)
	// activeReqs lists the requests currently holding flow slots, in grant
	// order. A depth advisor uses it to resume an application's
	// budget-blocked requests when any of its chunks completes; a crash uses
	// it to kill every request holding a slot. Slice appends reuse capacity
	// and schedule nothing, so maintaining it unconditionally is free.
	activeReqs []*srvReqState
	// devFree recycles the device requests that store and read chunks. A
	// device drops its reference to a request once the request's Done has
	// run, so Done hands it back here and the chunk path allocates no
	// request in steady state.
	devFree []*devReq

	// down marks the server crashed (fail-stop): every queued and in-flight
	// request was killed, and chunks arriving while down are read off the
	// wire and discarded.
	down bool

	// wakeArmed/wakeAt bound the retry events a throttling scheduler asks
	// for: at most one useful wake-up is in flight at a time.
	wakeArmed bool
	wakeAt    sim.Time
}

// NewServer builds a server bound to host with the given backend, persisting
// writes by the platform's sync mode. cache may be nil unless sync is
// SyncOff. The scheduler is qos.New's for p.QoS, whatever its kind.
func NewServer(e *sim.Engine, id int, host *netsim.Host, dev storage.Device, cache *storage.WriteCache, sync SyncMode, p ServerParams) *Server {
	if p.FlowBufs <= 0 {
		p.FlowBufs = 1
	}
	if err := p.QoS.Validate(); err != nil {
		panic("pfs: " + err.Error())
	}
	// A QoS block may serialize the flow layer — admission control only
	// shapes traffic when the flow slots actually arbitrate — and the knob
	// is honored for Off too, so a baseline arm can be serialized the same
	// way as the scheduler it is compared against.
	if eff := p.QoS.WithDefaults(); eff.FlowSlots > 0 {
		p.FlowBufs = eff.FlowSlots
	}
	if sync == SyncOff && cache == nil {
		panic("pfs: SyncOff requires a write cache")
	}
	s := &Server{
		E: e, ID: id, Host: host, P: p, Dev: dev, Cache: cache, sync: sync,
		cpu:       &sim.Line{E: e, Rate: p.CPUBytesPerSec, PerOp: p.CPUPerChunk},
		freeFlows: p.FlowBufs,
	}
	s.onReadableFn = s.onReadable
	s.Tel = qos.NewTelemetry(dev)
	s.sched = qos.New(e, p.QoS, s.Tel)
	s.adv, _ = s.sched.(qos.DepthAdvisor)
	return s
}

// AppDepth reports the active scheduler's current in-flight chunk budget
// for app — 0 when unbounded or when the scheduler has no depth lever. A
// diagnostic for tests and probes.
func (s *Server) AppDepth(app int) int {
	if s.adv == nil {
		return 0
	}
	return s.adv.AppDepth(app)
}

// FreeFlows returns the number of idle flow slots.
func (s *Server) FreeFlows() int { return s.freeFlows }

// Crash fail-stops the server: every queued and active request dies (its
// buffered chunks are read off the wire and discarded, so receive-buffer
// space is freed and the one-read-per-announced-message invariant holds),
// all flow slots are reclaimed, and until Restart every arriving chunk is
// discarded the same way. Chunks already handed to the CPU or device keep
// flowing through the pipeline but complete into dead requests, which
// no-op. Clients see the crash as silence — no replies — and recover
// through their own deadline/retry machinery.
func (s *Server) Crash() {
	if s.down {
		return
	}
	s.down = true
	s.Tel.MarkDown(s.E.Now())
	for _, st := range s.reqQueue {
		s.abortReq(st)
	}
	s.reqQueue = s.reqQueue[:0]
	for _, st := range s.activeReqs {
		s.abortReq(st)
	}
	s.activeReqs = s.activeReqs[:0]
	s.freeFlows = s.P.FlowBufs
}

// Restart brings a crashed server back. State that died with the crash
// stays dead; new requests are served normally from here on.
func (s *Server) Restart() {
	if !s.down {
		return
	}
	s.down = false
	s.Tel.MarkUp(s.E.Now())
	s.pump()
}

// abortReq kills one request's share on this server: marks it dead (late
// completions and late chunks no-op / discard) and drains its buffered
// chunks off the socket.
func (s *Server) abortReq(st *srvReqState) {
	st.dead = true
	st.active = false
	for ; st.next < st.readable; st.next++ {
		st.conn.ReadHead()
		s.Tel.Discard(st.chunks[st.next].msg.Size)
	}
}

// QueuedRequests returns how many requests await a flow slot.
func (s *Server) QueuedRequests() int { return len(s.reqQueue) }

// newFileID allocates a server-local byte stream identifier.
func (s *Server) newFileID() storage.FileID {
	s.nextFileID++
	return s.nextFileID
}

// onReadable is installed as the OnReadable callback of every connection
// that dials this server. A request "arrives" when its first chunk is fully
// buffered; until the request is granted a flow slot its chunks stay unread
// in the socket, keeping the sender's window shut.
func (s *Server) onReadable(c *netsim.Conn, m *netsim.Message) {
	st := m.Meta.(*chunkMsg).st
	if s.down || st.dead {
		// Crashed server (or a request the crash killed): read the chunk
		// off the wire and throw it away. Marking the request dead makes
		// its later chunks — possibly arriving after a restart — die too;
		// the client's retry layer sends a fresh request state per attempt.
		st.dead = true
		c.ReadHead()
		s.Tel.Discard(m.Size)
		return
	}
	st.readable++
	if !st.arrived {
		st.arrived = true
		st.srv = s
		st.conn = c
		st.arriveAt = s.E.Now()
		s.Tel.Arrive(c.App, st.bytes)
		s.reqQueue = append(s.reqQueue, st)
	}
	if st.active {
		s.consume(st)
		return
	}
	s.pump()
}

// pick asks the scheduler which queued request gets the next flow slot.
// The scheduler sees a value view of the queue (rebuilt into a reusable
// slice — no allocation in steady state); all disciplines preserve
// per-connection message order within an application. A negative return
// with a wake time arms a retry event: a throttling scheduler (token
// bucket, controller) deliberately idles the slot until tokens refill.
func (s *Server) pick() int {
	s.qview = s.qview[:0]
	for _, st := range s.reqQueue {
		s.qview = append(s.qview, qos.Request{
			App: st.conn.App, Issued: st.issued, Bytes: st.bytes,
		})
	}
	idx, wake := s.sched.Pick(s.E.Now(), s.qview)
	if idx < 0 && wake > s.E.Now() && wake < sim.MaxTime {
		s.armWake(wake)
	}
	return idx
}

// armWake schedules a pump retry at the scheduler-requested time, keeping
// at most one useful wake-up in flight (an earlier request supersedes a
// later one; the superseded event fires as a harmless no-op pump).
func (s *Server) armWake(at sim.Time) {
	if s.wakeArmed && s.wakeAt <= at {
		return
	}
	s.wakeArmed = true
	s.wakeAt = at
	s.E.AtCall(at, s, 0, 0, 0)
}

// OnEvent implements sim.Target: a scheduler-requested pump retry. Only
// the currently armed wake releases the flag — a superseded event firing
// earlier must not fake-release it, or its pump would re-arm a duplicate
// of the still-pending wake.
func (s *Server) OnEvent(op uint32, a, b int64) {
	if s.E.Now() >= s.wakeAt {
		s.wakeArmed = false
	}
	s.pump()
}

// allowance returns the per-flow in-flight chunk budget under the shared
// flow-buffer pool.
func (s *Server) allowance() int {
	depth := s.P.FlowDepth
	if depth <= 0 {
		depth = 1
	}
	active := s.P.FlowBufs - s.freeFlows
	if active < 1 {
		active = 1
	}
	if s.P.FlowPool > 0 {
		if share := s.P.FlowPool / active; share < depth {
			depth = share
		}
	}
	if depth < 1 {
		depth = 1
	}
	return depth
}

// pump grants free flow slots to queued requests until the slots run out,
// the queue drains, or the scheduler withholds the grant (throttled).
func (s *Server) pump() {
	if s.down {
		return
	}
	for s.freeFlows > 0 && len(s.reqQueue) > 0 {
		i := s.pick()
		if i < 0 {
			return
		}
		st := s.reqQueue[i]
		copy(s.reqQueue[i:], s.reqQueue[i+1:])
		s.reqQueue = s.reqQueue[:len(s.reqQueue)-1]
		s.freeFlows--
		st.active = true
		st.grantAt = s.E.Now()
		s.Tel.Grant(st.conn.App, st.bytes)
		s.activeReqs = append(s.activeReqs, st)
		s.consume(st)
	}
}

// consume pulls buffered chunks of an active request out of its socket and
// into the processing pipeline, keeping at most FlowDepth chunks in flight
// — and, when a QoS depth advisor is active, at most the application's
// in-flight chunk budget across all of its flows on this server. Reading
// reopens the TCP window, so the flow self-clocks: the socket refills
// while earlier chunks are stored.
func (s *Server) consume(st *srvReqState) {
	if st.dead {
		return
	}
	depth := s.allowance()
	if depth <= 0 {
		depth = 1
	}
	appBudget := 0
	if s.adv != nil {
		appBudget = s.adv.AppDepth(st.conn.App)
	}
	for st.next < st.readable && st.inflight < depth {
		if appBudget > 0 && s.Tel.App(st.conn.App).InFlight >= int64(appBudget) {
			return
		}
		ck := &st.chunks[st.next]
		st.next++
		st.conn.ReadHead()
		st.inflight++
		s.Tel.Consume(st.conn.App, ck.size)
		s.cpu.SendCall(ck.size, ck, opStore, 0, 0)
	}
}

// store hands the chunk to the backend according to the sync mode. Reads
// always go to the device: the write-back cache only absorbs writes.
func (s *Server) store(c *netsim.Conn, ck *chunkMsg) {
	r := s.devReq(c, ck)
	switch {
	case s.sync == NullAIO:
		s.E.Schedule(0, r.Done)
	case ck.st.read || s.sync == SyncOn:
		s.Dev.Submit(&r.Request)
	case s.sync == SyncOff:
		s.Cache.Write(&r.Request)
	}
}

// devReq is a recycled device request: the storage request of one chunk,
// plus what its completion needs — the server, the chunk and the chunk's
// connection. done is the completion method value, bound once when the
// devReq is first allocated, so handing a devReq out allocates no closure.
type devReq struct {
	storage.Request
	srv  *Server
	conn *netsim.Conn
	ck   *chunkMsg
	done func()
}

// devReq returns a device request for chunk ck, taken from the free list
// when one is there. Done is set on every hand-out: a device may replace it
// while the request is in service (storage.Degraded wraps it).
func (s *Server) devReq(c *netsim.Conn, ck *chunkMsg) *devReq {
	var r *devReq
	if n := len(s.devFree); n > 0 {
		r = s.devFree[n-1]
		s.devFree = s.devFree[:n-1]
	} else {
		r = &devReq{srv: s}
		r.done = r.complete
	}
	r.Request = storage.Request{
		File: ck.st.file, Offset: ck.local, Size: ck.size,
		Stream: storage.StreamID(c.App), Read: ck.st.read, Done: r.done,
	}
	r.conn, r.ck = c, ck
	return r
}

// complete is the device request's Done: it recycles the request and
// accounts the chunk.
func (r *devReq) complete() {
	s, c, ck := r.srv, r.conn, r.ck
	r.conn, r.ck = nil, nil
	s.devFree = append(s.devFree, r)
	if ck.st.read {
		s.readChunkServed(c, ck)
	} else {
		s.chunkDone(c, ck)
	}
}

// readChunkServed accounts a fetched read chunk and ships its data back on
// the reply path; each read chunk replies individually.
func (s *Server) readChunkServed(c *netsim.Conn, ck *chunkMsg) {
	if ck.st.dead {
		return
	}
	s.Tel.Done(c.App, ck.size)
	c.Reply(ck.size, ck, opReply, 0, 0)
	s.readChunkDone(ck.st)
}

// chunkDone accounts a stored write chunk; when the whole request's share
// on this server is stored, it replies and frees the flow slot.
func (s *Server) chunkDone(c *netsim.Conn, ck *chunkMsg) {
	st := ck.st
	if st.dead {
		return
	}
	st.remaining--
	st.inflight--
	s.Tel.Done(c.App, ck.size)
	if st.remaining == 0 {
		c.Reply(s.P.RespBytes, ck, opReply, 0, 0)
		s.finishFlow(st)
		return
	}
	s.refill(st)
}

// readChunkDone accounts a served read chunk and frees the flow at the end.
func (s *Server) readChunkDone(st *srvReqState) {
	if st.dead {
		return
	}
	st.remaining--
	st.inflight--
	if st.remaining == 0 {
		s.finishFlow(st)
		return
	}
	s.refill(st)
}

// refill resumes chunk consumption after a completion. Without a depth
// advisor only st itself can have head-room (per-flow depth); with one,
// the completed chunk may also have freed the application's shared budget
// for a sibling request, so every active flow of the application is
// re-polled, in grant order.
func (s *Server) refill(st *srvReqState) {
	if s.adv == nil {
		s.consume(st)
		return
	}
	s.refillApp(st.conn.App)
}

// refillApp re-polls every active flow of one application, in grant order.
func (s *Server) refillApp(app int) {
	for _, a := range s.activeReqs {
		if a.conn.App == app {
			s.consume(a)
		}
	}
}

func (s *Server) finishFlow(st *srvReqState) {
	st.active = false
	s.freeFlows++
	s.Tel.Finish(st.conn.App)
	s.Tel.Span(st.conn.App, st.bytes, st.read, st.issueAt, st.arriveAt, st.grantAt, s.E.Now())
	for i, a := range s.activeReqs {
		if a == st {
			copy(s.activeReqs[i:], s.activeReqs[i+1:])
			s.activeReqs = s.activeReqs[:len(s.activeReqs)-1]
			break
		}
	}
	if s.adv != nil {
		// The finished flow's last chunk freed budget head-room its
		// sibling flows may be blocked on.
		s.refillApp(st.conn.App)
	}
	s.pump()
}
