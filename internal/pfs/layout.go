// Package pfs models a PVFS/OrangeFS-like parallel file system: files are
// striped round-robin across a set of storage servers; clients split logical
// requests into per-server pieces, ship them over per-(client,server) TCP
// connections in flow-buffer-sized chunks (the PVFS flow protocol), and
// servers push the chunks through a Trove-like layer to the backend device,
// either synchronously ("Sync ON": the reply waits for the device),
// write-back through the kernel cache ("Sync OFF"), or discarding data
// ("null-aio").
//
// The deliberate mirror of PVFS's structure matters because the paper's
// central finding — incast-driven unfairness — emerges from Trove having no
// flow control of its own: a slow device stalls the flow buffers, which
// stalls socket reads, which closes TCP windows.
package pfs

import "iter"

// Layout describes round-robin striping over Width servers with a fixed
// stripe size (PVFS "simple_stripe").
type Layout struct {
	Width  int   // number of servers the file is striped over
	Stripe int64 // stripe size in bytes
}

// Piece is one stripe fragment of a logical extent, in file order.
type Piece struct {
	SrvPos int   // position in the file's server list
	Local  int64 // offset within the server-local byte stream
	Size   int64
}

// Run is a contiguous extent in a server-local byte stream.
type Run struct {
	Local int64
	Size  int64
}

// check panics on an unusable layout or a negative extent.
func (l Layout) check(off, size int64) {
	if l.Width <= 0 || l.Stripe <= 0 {
		panic("pfs: invalid layout")
	}
	if off < 0 || size < 0 {
		panic("pfs: negative extent")
	}
}

// Map splits the logical extent [off, off+size) into stripe pieces in file
// order. The server-local offset of global stripe g (= off/Stripe) is
// (g/Width)*Stripe plus the offset within the stripe: consecutive stripes
// assigned to a server are adjacent in its local stream, so contiguous
// logical extents are contiguous locally — and strided ones leave holes.
func (l Layout) Map(off, size int64) []Piece {
	l.check(off, size)
	var out []Piece
	for size > 0 {
		g := off / l.Stripe
		in := off % l.Stripe
		n := l.Stripe - in
		if n > size {
			n = size
		}
		out = append(out, Piece{
			SrvPos: int(g % int64(l.Width)),
			Local:  (g/int64(l.Width))*l.Stripe + in,
			Size:   n,
		})
		off += n
		size -= n
	}
	return out
}

// shares yields, in server-position order, each server position the
// logical extent [off, off+size) touches and its share there. A contiguous
// extent is contiguous on every server — a server's stripes in it are
// adjacent in its local stream — so a share is one run: from the server's
// first stripe in the extent (entered at off's offset within it, when it is
// off's stripe) to the end of its last (cut at the extent's end, when it is
// the extent's last stripe). That is O(1) per server however many stripes
// the extent covers.
func (l Layout) shares(off, size int64) iter.Seq2[int, Run] {
	return func(yield func(int, Run) bool) {
		l.check(off, size)
		if size == 0 {
			return
		}
		w, s := int64(l.Width), l.Stripe
		end := off + size - 1 // the extent's last byte
		g0, g1 := off/s, end/s
		// The extent's stripes g0..g1 go round-robin from position g0%w, so
		// the touched positions are n consecutive ones (mod w) from there.
		n, p0 := min(w, g1-g0+1), g0%w
		for pos := int64(0); pos < w; pos++ {
			d := pos - p0
			if d < 0 {
				d += w
			}
			if d >= n {
				continue
			}
			first := g0 + d                // pos's first stripe in the extent
			last := first + (g1-first)/w*w // and its last
			start := first / w * s
			if first == g0 {
				start += off % s
			}
			stop := (last/w + 1) * s
			if last == g1 {
				stop = last/w*s + end%s + 1
			}
			if !yield(int(pos), Run{Local: start, Size: stop - start}) {
				return
			}
		}
	}
}

// ServersTouched returns how many distinct servers the extent involves —
// the quantity the paper manipulates in the stripe-size and request-size
// experiments (fewer servers per request ⇒ less global synchronization).
func (l Layout) ServersTouched(off, size int64) int {
	touched := 0
	for range l.shares(off, size) {
		touched++
	}
	return touched
}
