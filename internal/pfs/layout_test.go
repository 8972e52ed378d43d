package pfs

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestLayoutMapSingleStripe(t *testing.T) {
	l := Layout{Width: 4, Stripe: 64 << 10}
	p := l.Map(0, 64<<10)
	if len(p) != 1 || p[0].SrvPos != 0 || p[0].Local != 0 || p[0].Size != 64<<10 {
		t.Fatalf("pieces = %+v", p)
	}
}

func TestLayoutMapRoundRobin(t *testing.T) {
	l := Layout{Width: 3, Stripe: 100}
	p := l.Map(0, 350)
	want := []Piece{
		{SrvPos: 0, Local: 0, Size: 100},
		{SrvPos: 1, Local: 0, Size: 100},
		{SrvPos: 2, Local: 0, Size: 100},
		{SrvPos: 0, Local: 100, Size: 50},
	}
	if len(p) != len(want) {
		t.Fatalf("pieces = %+v", p)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("piece %d = %+v, want %+v", i, p[i], want[i])
		}
	}
}

func TestLayoutMapUnalignedStart(t *testing.T) {
	l := Layout{Width: 2, Stripe: 100}
	p := l.Map(150, 100)
	want := []Piece{
		{SrvPos: 1, Local: 50, Size: 50},  // stripe 1 -> server 1, local stripe 0
		{SrvPos: 0, Local: 100, Size: 50}, // stripe 2 -> server 0, local stripe 1
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("piece %d = %+v, want %+v", i, p[i], want[i])
		}
	}
}

// shareRuns collects Layout.shares into each server position's runs, in
// the order they were yielded; untouched positions stay nil.
func shareRuns(l Layout, off, size int64) [][]Run {
	runs := make([][]Run, l.Width)
	for pos, r := range l.shares(off, size) {
		runs[pos] = append(runs[pos], r)
	}
	return runs
}

func TestLayoutPerServerMergesContiguous(t *testing.T) {
	// A full-width-aligned extent is contiguous on every server.
	l := Layout{Width: 4, Stripe: 64 << 10}
	size := int64(8 << 20) // 128 stripes, 32 per server
	runs := shareRuns(l, 0, size)
	for pos, rs := range runs {
		if len(rs) != 1 {
			t.Fatalf("server %d has %d runs, want 1: %+v", pos, len(rs), rs)
		}
		if rs[0].Size != size/4 {
			t.Fatalf("server %d run size = %d, want %d", pos, rs[0].Size, size/4)
		}
		if rs[0].Local != 0 {
			t.Fatalf("server %d local = %d", pos, rs[0].Local)
		}
	}
}

func TestLayoutStridedLeavesHoles(t *testing.T) {
	// 256 KB blocks with 256 KB gaps, 64 KB stripes, 4 servers: each block
	// touches each server once; consecutive blocks of the same writer are
	// NOT contiguous locally (the gap maps to the same servers).
	l := Layout{Width: 4, Stripe: 64 << 10}
	a := shareRuns(l, 0, 256<<10)
	b := shareRuns(l, 512<<10, 256<<10)
	for pos := 0; pos < 4; pos++ {
		if len(a[pos]) != 1 || len(b[pos]) != 1 {
			t.Fatalf("runs per block: %v %v", a[pos], b[pos])
		}
		if a[pos][0].Local+a[pos][0].Size == b[pos][0].Local {
			t.Fatalf("server %d: blocks unexpectedly contiguous", pos)
		}
	}
}

func TestServersTouched(t *testing.T) {
	l := Layout{Width: 12, Stripe: 64 << 10}
	// The paper's request-size observation: a 256 KB request touches 4
	// servers at 64 KB stripes; a 64 KB request touches 1.
	if got := l.ServersTouched(0, 256<<10); got != 4 {
		t.Fatalf("256KB request touches %d servers, want 4", got)
	}
	if got := l.ServersTouched(0, 64<<10); got != 1 {
		t.Fatalf("64KB request touches %d servers, want 1", got)
	}
	// And with a 256 KB stripe, a 256 KB aligned request touches 1.
	l2 := Layout{Width: 12, Stripe: 256 << 10}
	if got := l2.ServersTouched(0, 256<<10); got != 1 {
		t.Fatalf("256KB request at 256KB stripe touches %d, want 1", got)
	}
}

// Property: pieces tile the extent exactly — sizes sum to the extent, each
// piece's global position round-trips through the (server, local) mapping,
// and pieces are in file order.
func TestPropertyLayoutRoundTrip(t *testing.T) {
	f := func(width8 uint8, stripe16 uint16, off32, size32 uint32) bool {
		width := int(width8%16) + 1
		stripe := int64(stripe16%4096) + 1
		off := int64(off32 % (1 << 22))
		size := int64(size32 % (1 << 20))
		l := Layout{Width: width, Stripe: stripe}
		pieces := l.Map(off, size)
		var sum int64
		cur := off
		for _, p := range pieces {
			sum += p.Size
			// Invert the mapping: global = (local/stripe*width + srvPos)*stripe + local%stripe.
			g := (p.Local/stripe)*int64(width) + int64(p.SrvPos)
			global := g*stripe + p.Local%stripe
			if global != cur {
				return false
			}
			cur += p.Size
		}
		return sum == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: the per-server shares conserve bytes, runs never overlap on a
// server, and ServersTouched counts the servers with a share.
func TestPropertyPerServerConserves(t *testing.T) {
	f := func(width8 uint8, stripe16 uint16, off32, size32 uint32) bool {
		width := int(width8%12) + 1
		stripe := int64(stripe16%2048) + 1
		off := int64(off32 % (1 << 20))
		size := int64(size32 % (1 << 18))
		l := Layout{Width: width, Stripe: stripe}
		var sum int64
		touched := 0
		for _, rs := range shareRuns(l, off, size) {
			var prevEnd int64 = -1
			for _, r := range rs {
				if r.Size <= 0 || r.Local < 0 {
					return false
				}
				if prevEnd >= 0 && r.Local < prevEnd {
					return false // overlap or disorder
				}
				prevEnd = r.Local + r.Size
				sum += r.Size
			}
			if len(rs) > 0 {
				touched++
			}
		}
		return sum == size && touched == l.ServersTouched(off, size)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: the shares come in server-position order, and each is Map's
// pieces on that server merged into runs — which merge into exactly one
// run, since a contiguous extent is contiguous on every server.
func TestPropertyPerServerMatchesMap(t *testing.T) {
	f := func(width8 uint8, stripe16 uint16, off32, size32 uint32) bool {
		l := Layout{Width: int(width8%12) + 1, Stripe: int64(stripe16%2048) + 1}
		off := int64(off32 % (1 << 20))
		size := int64(size32 % (1 << 18))
		want := make([][]Run, l.Width)
		for _, p := range l.Map(off, size) {
			rs := want[p.SrvPos]
			if n := len(rs); n > 0 && rs[n-1].Local+rs[n-1].Size == p.Local {
				rs[n-1].Size += p.Size
			} else {
				want[p.SrvPos] = append(rs, Run{Local: p.Local, Size: p.Size})
			}
		}
		prev := -1
		for pos := range l.shares(off, size) {
			if pos <= prev {
				return false
			}
			prev = pos
		}
		return reflect.DeepEqual(shareRuns(l, off, size), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLayoutPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Layout{Width: 0, Stripe: 1}.Map(0, 1) },
		func() { Layout{Width: 1, Stripe: 0}.Map(0, 1) },
		func() { Layout{Width: 1, Stripe: 1}.Map(-1, 1) },
		func() { shareRuns(Layout{Width: 0, Stripe: 1}, 0, 1) },
		func() { shareRuns(Layout{Width: 1, Stripe: 1}, 0, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}
