// Package workload generates the paper's IOR-like microbenchmark access
// patterns. Each process of an application writes BlockBytes in total,
// either as one contiguous request at rank*BlockBytes (the "Contiguous"
// pattern) or as BlockBytes/TransferSize strided requests interleaved
// across ranks (the "Strided" pattern, IOR's segmented layout).
package workload

import (
	"fmt"
	"strings"
)

// Pattern is an access pattern kind.
type Pattern int

// Patterns from the paper (§III-B).
const (
	// Contiguous: one request of BlockBytes at offset rank*BlockBytes.
	Contiguous Pattern = iota
	// Strided: BlockBytes/TransferSize requests; request i of rank r is at
	// offset (i*nprocs + r) * TransferSize — a one-dimensional strided
	// pattern in the shared file.
	Strided
)

func (p Pattern) String() string {
	switch p {
	case Contiguous:
		return "contiguous"
	case Strided:
		return "strided"
	}
	return "unknown"
}

// ParsePattern converts a pattern name ("contiguous" or "strided"; the
// empty string and "contig" mean contiguous) to a Pattern. Unknown names
// yield an error listing the valid set.
func ParsePattern(s string) (Pattern, error) {
	switch strings.ToLower(s) {
	case "", "contiguous", "contig":
		return Contiguous, nil
	case "strided":
		return Strided, nil
	}
	return 0, fmt.Errorf("unknown pattern %q (valid: contiguous, strided)", s)
}

// Spec describes one application's I/O phase.
type Spec struct {
	Pattern Pattern
	// BlockBytes is the total bytes written per process (64 MB in most of
	// the paper's experiments).
	BlockBytes int64
	// TransferSize is the request size for the strided pattern (256 KB in
	// the paper's base strided workload). Ignored for Contiguous.
	TransferSize int64
	// QD is the number of outstanding requests per process (1 = strictly
	// sequential requests, matching blocking MPI-IO calls).
	QD int
	// ThinkTime is a fixed client-side cost per request (MPI-IO collective
	// coordination, request setup). With small transfer sizes it dominates
	// and the system becomes latency-bound — the paper's "interference-free
	// but far from optimal" regime (§IV-A7).
	ThinkTime int64 // nanoseconds
	// Read makes the phase read instead of write (paper future work).
	Read bool
}

// Validate checks the spec for consistency.
func (s Spec) Validate() error {
	if s.BlockBytes <= 0 {
		return fmt.Errorf("workload: BlockBytes must be positive, got %d", s.BlockBytes)
	}
	if s.Pattern == Strided {
		if s.TransferSize <= 0 {
			return fmt.Errorf("workload: strided pattern needs TransferSize > 0")
		}
		if s.BlockBytes%s.TransferSize != 0 {
			return fmt.Errorf("workload: BlockBytes %d not divisible by TransferSize %d",
				s.BlockBytes, s.TransferSize)
		}
	}
	return nil
}

// Extent is one I/O request in the shared file.
type Extent struct {
	Off  int64
	Size int64
}

// Plan returns the ordered request list for the given rank out of nprocs.
func (s Spec) Plan(rank, nprocs int) []Extent {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	if rank < 0 || rank >= nprocs {
		panic(fmt.Sprintf("workload: rank %d out of %d", rank, nprocs))
	}
	switch s.Pattern {
	case Contiguous:
		return []Extent{{Off: int64(rank) * s.BlockBytes, Size: s.BlockBytes}}
	case Strided:
		n := int(s.BlockBytes / s.TransferSize)
		out := make([]Extent, n)
		for i := 0; i < n; i++ {
			out[i] = Extent{
				Off:  (int64(i)*int64(nprocs) + int64(rank)) * s.TransferSize,
				Size: s.TransferSize,
			}
		}
		return out
	}
	panic("workload: unknown pattern")
}

// TotalBytes returns the bytes one application writes (all processes).
func (s Spec) TotalBytes(nprocs int) int64 { return s.BlockBytes * int64(nprocs) }

// FileBytes returns the size of the shared file the pattern covers.
func (s Spec) FileBytes(nprocs int) int64 { return s.BlockBytes * int64(nprocs) }

// Requests returns the number of requests each process issues.
func (s Spec) Requests() int {
	if s.Pattern == Contiguous {
		return 1
	}
	return int(s.BlockBytes / s.TransferSize)
}
