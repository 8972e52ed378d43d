package pfs

import "testing"

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

// requestAllocs is the fixed allocation count of one single-server request
// beyond its chunks: the client request, the share's state and its pending
// queue's backing array, and the layout's and the plan's two slices each.
const requestAllocs = 7

// TestWriteChunkAllocs pins the write path's allocation budget: a write of
// n chunks allocates exactly one object per chunk — the chunk, with its
// wire message embedded — plus a fixed per-request count. The receiver
// queues the sender's message, the device request is recycled with a
// pre-bound completion (which null-aio schedules directly), and the reply
// is delivered to the last chunk.
func TestWriteChunkAllocs(t *testing.T) {
	for _, mode := range []SyncMode{SyncOn, NullAIO} {
		for _, n := range []int{1, 8, 32} {
			if got, want := chunkAllocs(t, mode, n, false), float64(n+requestAllocs); got != want {
				t.Errorf("%v write of %d chunks: %.0f allocations, want %.0f (one per chunk + %d per request)",
					mode, n, got, want, requestAllocs)
			}
		}
	}
}

// TestReadReplyAllocs pins that a read allocates nothing per reply: every
// read chunk is answered by a reply of its own, delivered to the chunk
// itself, so a read of n chunks costs what a write of n chunks (one reply)
// does. The sizes stay within the flow depth, so the share's pending queue
// holds at most one chunk, as it does for the writes above; deeper reads
// grow that queue once per doubling, per request.
func TestReadReplyAllocs(t *testing.T) {
	for _, n := range []int{1, 8, 16} {
		if got, want := chunkAllocs(t, SyncOn, n, true), float64(n+requestAllocs); got != want {
			t.Errorf("read of %d chunks (%d replies): %.0f allocations, want %.0f (one per chunk + %d per request)",
				n, n, got, want, requestAllocs)
		}
	}
}
