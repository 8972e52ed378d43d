package main

import (
	"math/rand/v2"
	"sync"
	"time"
)

// arrival is one request of an open-loop schedule.
type arrival struct {
	due   time.Duration // offset from the schedule's start
	query int           // catalogue index
}

// scheduleMix shapes a schedule: scenario queries (the first nScenario
// catalogue entries) are drawn Zipf(zipfS) by catalogue rank, and a
// traceShare of requests upload one of the nTrace recordings that follow
// them, uniformly.
type scheduleMix struct {
	nScenario, nTrace int
	zipfS             float64
	traceShare        float64
}

// makeSchedule builds segment seg of the seeded open-loop schedule: n
// requests with Poisson arrivals at rate per second. The same seed and
// segment always give the same schedule.
func makeSchedule(seed uint64, seg, n int, rate float64, mix scheduleMix) []arrival {
	r := rand.New(rand.NewPCG(seed, uint64(seg)))
	zipf := rand.NewZipf(r, mix.zipfS, 1, uint64(mix.nScenario-1))
	out := make([]arrival, n)
	var t float64
	for i := range out {
		t += r.ExpFloat64() / rate
		q := int(zipf.Uint64())
		if r.Float64() < mix.traceShare {
			q = mix.nScenario + r.IntN(mix.nTrace)
		}
		out[i] = arrival{due: time.Duration(t * float64(time.Second)), query: q}
	}
	return out
}

// reply is the client-side record of one request.
type reply struct {
	due     time.Time
	latency time.Duration // from the request's due time to its last body byte
	lag     time.Duration // how late the generator started sending it
	status  int
	body    []byte
	err     error
}

// drive replays a schedule open-loop from start: each request is sent on
// its own goroutine at its due time whether or not earlier ones have been
// answered, and is timed from when it was due, so a stall also counts
// against the requests queued behind it. drive returns once every request
// has been answered.
func drive(start time.Time, sched []arrival, send func(query int) (int, []byte, error)) []reply {
	out := make([]reply, len(sched))
	var wg sync.WaitGroup
	for i, a := range sched {
		due := start.Add(a.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, due time.Time, query int) {
			defer wg.Done()
			sent := time.Now()
			status, body, err := send(query)
			out[i] = reply{due: due, latency: time.Since(due), lag: sent.Sub(due), status: status, body: body, err: err}
		}(i, due, a.query)
	}
	wg.Wait()
	return out
}
