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

// PerServer splits the extent like Map and merges contiguous pieces per
// server, returning one slice of local runs for each server position (empty
// slices for untouched servers). It walks the stripes itself rather than
// calling Map: a 64 MiB request at 64 KiB stripes is 1024 pieces, but on a
// contiguous extent only one run per server.
func (l Layout) PerServer(off, size int64) [][]Run {
	l.check(off, size)
	runs := make([][]Run, l.Width)
	for size > 0 {
		g := off / l.Stripe
		in := off % l.Stripe
		n := l.Stripe - in
		if n > size {
			n = size
		}
		pos := int(g % int64(l.Width))
		local := (g/int64(l.Width))*l.Stripe + in
		rs := runs[pos]
		if k := len(rs); k > 0 && rs[k-1].Local+rs[k-1].Size == local {
			rs[k-1].Size += n
		} else {
			runs[pos] = append(rs, Run{Local: local, Size: n})
		}
		off += n
		size -= n
	}
	return runs
}

// ServersTouched returns how many distinct servers the extent involves —
// the quantity the paper manipulates in the stripe-size and request-size
// experiments (fewer servers per request ⇒ less global synchronization).
func (l Layout) ServersTouched(off, size int64) int {
	touched := 0
	for _, rs := range l.PerServer(off, size) {
		if len(rs) > 0 {
			touched++
		}
	}
	return touched
}
