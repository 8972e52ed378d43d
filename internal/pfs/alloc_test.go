package pfs

import (
	"testing"

	"repro/internal/sim"
)

// chunkAllocs measures the heap allocations of one read or write request of
// n chunks on a warmed single-server rig, run to completion. The rig's
// queues, free lists and the engine's event slab are warmed with the same
// request first, so only the request's own allocations remain.
func chunkAllocs(t *testing.T, mode SyncMode, n int, read bool) float64 {
	t.Helper()
	r := buildRig(1, 1, "ram", mode)
	flow := r.fs.Servers[0].P.FlowBufSize
	f := r.fs.CreateFile("f", nil, flow)
	cl := r.fs.NewClient(r.cliHost[0], 0)
	done := 0
	onDone := func() { done++ }
	request := func() {
		if read {
			cl.ReadAsync(f, 0, int64(n)*flow, onDone)
		} else {
			cl.WriteAsync(f, 0, int64(n)*flow, onDone)
		}
		r.e.Run()
	}
	for i := 0; i < 4; i++ {
		request()
	}
	avg := testing.AllocsPerRun(50, request)
	if done != 55 { // 4 warm-ups, AllocsPerRun's own warm-up, 50 measured
		t.Fatalf("%d of 55 requests completed", done)
	}
	if got := r.devs[0].Stats().Bytes; mode != NullAIO && got != 55*int64(n)*flow {
		t.Fatalf("device moved %d bytes, want %d", got, 55*int64(n)*flow)
	}
	return avg
}

// requestAllocs is the whole allocation count of one single-server
// request, whatever its chunk count: the client request, the plan slice,
// the share's state and its chunk slab.
const requestAllocs = 4

// TestWriteChunkAllocs pins the write path's allocation budget: a write
// allocates a fixed per-request count and nothing per chunk. A share's
// chunks, each with its wire message embedded, live in one slab; the
// receiver queues the sender's message, the server pulls the share's
// chunks through a cursor into the slab, the device request is recycled
// with a pre-bound completion (which null-aio schedules directly), and the
// reply is delivered to the last chunk.
func TestWriteChunkAllocs(t *testing.T) {
	for _, mode := range []SyncMode{SyncOn, NullAIO} {
		for _, n := range []int{1, 8, 32} {
			if got := chunkAllocs(t, mode, n, false); got != requestAllocs {
				t.Errorf("%v write of %d chunks: %.0f allocations, want %d per request",
					mode, n, got, requestAllocs)
			}
		}
	}
}

// TestReadReplyAllocs pins that a read allocates nothing per chunk or per
// reply: every read chunk is answered by a reply of its own, delivered to
// the chunk itself, so a read costs what a write does. The sizes reach
// past the flow depth (16 chunks), where the chunks wait unread in the
// socket for the flow to pull them: the server's cursor into the slab
// tracks them without a queue of its own.
func TestReadReplyAllocs(t *testing.T) {
	for _, n := range []int{1, 8, 16, 32, 64} {
		if got := chunkAllocs(t, SyncOn, n, true); got != requestAllocs {
			t.Errorf("read of %d chunks (%d replies): %.0f allocations, want %d per request",
				n, n, got, requestAllocs)
		}
	}
}

// blockingAllocs measures the heap allocations of one blocking request of
// n chunks, issued by a proc on a warmed single-server rig: the proc waits
// for a go-ahead, issues the request and waits again, so each measured run
// is exactly one request.
func blockingAllocs(t *testing.T, n int, read bool) float64 {
	t.Helper()
	r := buildRig(1, 1, "ram", SyncOn)
	flow := r.fs.Servers[0].P.FlowBufSize
	f := r.fs.CreateFile("f", nil, flow)
	cl := r.fs.NewClient(r.cliHost[0], 0)
	next := sim.NewSemaphore(0)
	issued, stop := 0, false
	r.e.Spawn("rank", func(p *sim.Proc) {
		for {
			next.Acquire(p)
			if stop {
				return
			}
			if read {
				cl.Read(p, f, 0, int64(n)*flow)
			} else {
				cl.Write(p, f, 0, int64(n)*flow)
			}
			issued++
		}
	})
	request := func() {
		next.Release()
		r.e.Run()
	}
	for i := 0; i < 4; i++ {
		request()
	}
	avg := testing.AllocsPerRun(50, request)
	stop = true
	request()
	if issued != 55 || cl.inflight != 0 {
		t.Fatalf("%d of 55 requests returned, %d in flight", issued, cl.inflight)
	}
	return avg
}

// TestBlockingRequestAllocs pins that a blocking Write or Read costs no
// more allocations than WriteAsync of the same size: the process waits on
// its client's own completion token, not on a fresh signal per request.
func TestBlockingRequestAllocs(t *testing.T) {
	for _, read := range []bool{false, true} {
		for _, n := range []int{1, 8} {
			async := chunkAllocs(t, SyncOn, n, false)
			if got := blockingAllocs(t, n, read); got > async {
				t.Errorf("blocking read=%v of %d chunks: %.0f allocations, WriteAsync %.0f", read, n, got, async)
			}
		}
	}
}
