// Package qos is the server-side quality-of-service subsystem: pluggable
// request schedulers that sit between the parallel file system's flow layer
// (pfs.Server) and the storage device, plus the LASSi-style telemetry probe
// layer they read. It is the repository's mitigation axis — the paper
// (§IV-B1) blames the *absence* of any server-side scheduling for much of
// the cross-application interference it measures, and the related work
// (Song et al.'s server-side coordination, Collignon et al.'s
// control-theoretic congestion mitigation, LASSi's risk/load metrics)
// sketches the remedies this package implements. Every server runs exactly
// one Scheduler, which New builds from a Kind:
//
//   - Off: PVFS's FIFO in issue order, the un-mitigated baseline.
//   - AppOrdered and RoundRobin: the server-side coordination orders of
//     the related work (Song et al.), which the paper's scheduling
//     ablation compares with FIFO.
//   - FairShare: deficit round-robin over application IDs, byte-fair
//     admission to the flow slots regardless of request size.
//   - TokenBucket: a per-application rate cap with configurable refill,
//     the static throttle an administrator would set.
//   - Controller: a feedback loop that samples per-application telemetry
//     (queued bytes, device utilization, throughput EWMA) on a simulated
//     tick and throttles the current aggressor's token rate while victims
//     have backlog — congestion control in the spirit of Collignon et al.
//
// Determinism: schedulers are purely event-driven state machines on the
// simulation clock — no wall clock, no randomness — and their steady state
// allocates nothing (per-application slices grow once and are reused).
package qos

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Request is the scheduler-visible view of one queued server request: the
// application that issued it, its queue-ordering timestamp, and the bytes
// of its share on this server. The pfs server rebuilds this view (in queue
// order, into a reusable slice) before every grant decision.
type Request struct {
	App    int
	Issued sim.Time
	Bytes  int64
}

// Scheduler decides which queued request receives the next free flow slot.
//
// Contract: q is non-empty and in server queue order. A returned idx >= 0
// is a commitment — the caller must grant q[idx] now (the scheduler has
// already updated its internal accounting). idx < 0 leaves the slot idle:
// if wake > now the caller must call Pick again at wake (throttled — a
// token bucket refilling), and in any case a new arrival or a completed
// request re-invokes Pick. Pick runs under the simulation's single-threaded
// event discipline and must not allocate in steady state.
type Scheduler interface {
	Pick(now sim.Time, q []Request) (idx int, wake sim.Time)
}

// DepthAdvisor is the second, finer lever a scheduler may implement: a
// per-application bound on in-flight chunks. Grant-time arbitration (Pick)
// cannot preempt a multi-megabyte request already holding a flow slot, and
// on a disk it is the aggressor's deep chunk pipeline — megabytes queued at
// the device — that delays every victim chunk behind it. A scheduler that
// also implements DepthAdvisor caps how many chunks one application keeps
// in flight toward the backend; the server consults it on every chunk pull.
//
// AppDepth returns the application's current in-flight chunk budget; 0
// means unbounded. Budgets must be >= 1 when bounded and may change over
// time (an application with a chunk in flight is always re-polled when
// that chunk completes, so tightening and loosening both take effect).
type DepthAdvisor interface {
	AppDepth(app int) int
}

// Kind selects a scheduler implementation.
type Kind int

// Scheduler kinds. Off is the zero value: PVFS's FIFO, the un-mitigated
// baseline of every sweep. The numbers are stable (a Kind marshals as its
// number), so new kinds are appended. AppOrdered and RoundRobin have no
// knobs and no names in ParseKind: specs, the CLIs and the what-if service
// choose among the four mitigation-axis names, and the scheduling
// ablation selects the coordinated orders by Kind.
const (
	Off Kind = iota
	FairShare
	TokenBucket
	Controller
	// AppOrdered always grants the lowest application ID first, so every
	// server processes applications in the same global order.
	AppOrdered
	// RoundRobin alternates grants between applications.
	RoundRobin
)

func (k Kind) String() string {
	switch k {
	case Off:
		return "off"
	case FairShare:
		return "fairshare"
	case TokenBucket:
		return "tokenbucket"
	case Controller:
		return "controller"
	case AppOrdered:
		return "app-ordered"
	case RoundRobin:
		return "round-robin"
	}
	return "unknown"
}

// AppBlind reports whether the kind's grants never depend on which
// application issued a request, so that renumbering the applications of a
// run renumbers its results and changes nothing else. Only Off qualifies:
// FIFO picks by issue time and queue order and never reads Request.App.
// RoundRobin does not, because its first contested grant avoids
// application 0 (last starts at 0), whoever issued first; AppOrdered
// grants by application ID; and FairShare, TokenBucket and Controller
// arbitrate over appHeads' per-application view, scanned in
// application-index order, so DRR's first visit and a tie between equally
// old heads both go to the lower index.
func (k Kind) AppBlind() bool { return k == Off }

// KindNames lists the canonical scheduler names ParseKind accepts, in
// declaration order — the valid set shown by CLI and spec error messages.
func KindNames() []string {
	return []string{Off.String(), FairShare.String(), TokenBucket.String(), Controller.String()}
}

// ParseKind converts a name ("off", "fairshare", "tokenbucket",
// "controller"; a few aliases like "drr" and "pid" are accepted) to a Kind.
// Unknown names yield an error listing the valid set.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "off", "", "none", "fifo":
		return Off, nil
	case "fairshare", "fair-share", "drr":
		return FairShare, nil
	case "tokenbucket", "token-bucket", "tb":
		return TokenBucket, nil
	case "controller", "feedback", "pid":
		return Controller, nil
	}
	return 0, fmt.Errorf("qos: unknown scheduler %q (valid: %s)",
		s, strings.Join(KindNames(), ", "))
}

// Params configures a scheduler. The zero value means Off. Zero-valued
// knobs select the calibrated defaults of Defaults(kind); New applies them.
type Params struct {
	Kind Kind

	// FlowSlots, when positive, overrides the server's FlowBufs while this
	// scheduler is active — the knob that makes grant-time arbitration
	// binding (with the default 16 slots, small request sets all fit and
	// Pick never gets a choice).
	FlowSlots int
	// InflightChunks is the per-application in-flight chunk budget of the
	// DepthAdvisor levers: FairShare clamps every application to it while
	// two or more applications have demand; Controller uses it as the
	// budget ceiling its feedback loop recovers toward.
	InflightChunks int

	// QuantumBytes is the deficit-round-robin quantum added per visit
	// (FairShare).
	QuantumBytes int64

	// RateBytesPerSec is the per-application token refill rate: the hard
	// cap for TokenBucket, the initial/maximum rate for Controller.
	RateBytesPerSec float64
	// BurstBytes is the token bucket capacity (both rate-based kinds).
	BurstBytes int64

	// Controller loop tuning.
	//
	// Tick is the sampling interval. TargetUtil is the device utilization
	// at or above which the loop treats the server as congested; ShareCap
	// is the throughput share beyond which the top application counts as
	// the aggressor. Each congested tick halves the aggressor's rate and
	// chunk budget (multiplicative decrease, floored at FloorBytesPerSec
	// and one chunk); each calm tick recovers every application additively
	// (RecoverBytesPerSec, one chunk) toward the caps.
	Tick               sim.Time
	TargetUtil         float64
	ShareCap           float64
	RecoverBytesPerSec float64
	FloorBytesPerSec   float64
}

// Defaults returns the calibrated parameter set of one scheduler kind.
// FairShare arbitrates grants byte-fairly and clamps every contending
// application to a 4-chunk pipeline (1 MiB of device backlog at the
// default 256 KiB flow buffer); TokenBucket statically caps every
// application at 48 MB/s per server; Controller starts effectively
// uncapped (1.6 GB/s, above the server's CPU ceiling; 16-chunk budget) and
// only throttles the aggressor on feedback.
func Defaults(kind Kind) Params {
	p := Params{Kind: kind}
	switch kind {
	case FairShare:
		p.QuantumBytes = 256 << 10
		p.InflightChunks = 4
	case TokenBucket:
		p.RateBytesPerSec = 48e6
		p.BurstBytes = 4 << 20
	case Controller:
		p.RateBytesPerSec = 1.6e9
		p.BurstBytes = 8 << 20
		p.InflightChunks = 16
		p.Tick = 5 * sim.Millisecond
		p.TargetUtil = 0.9
		p.ShareCap = 0.65
		p.RecoverBytesPerSec = 64e6
		p.FloorBytesPerSec = 16e6
	}
	return p
}

// WithDefaults fills zero-valued knobs from Defaults(p.Kind) — the
// effective parameter set a scheduler built from p runs with.
func (p Params) WithDefaults() Params {
	d := Defaults(p.Kind)
	if p.FlowSlots == 0 {
		p.FlowSlots = d.FlowSlots
	}
	if p.InflightChunks == 0 {
		p.InflightChunks = d.InflightChunks
	}
	if p.QuantumBytes == 0 {
		p.QuantumBytes = d.QuantumBytes
	}
	if p.RateBytesPerSec == 0 {
		p.RateBytesPerSec = d.RateBytesPerSec
	}
	if p.BurstBytes == 0 {
		p.BurstBytes = d.BurstBytes
	}
	if p.Tick == 0 {
		p.Tick = d.Tick
	}
	if p.TargetUtil == 0 {
		p.TargetUtil = d.TargetUtil
	}
	if p.ShareCap == 0 {
		p.ShareCap = d.ShareCap
	}
	if p.RecoverBytesPerSec == 0 {
		p.RecoverBytesPerSec = d.RecoverBytesPerSec
	}
	if p.FloorBytesPerSec == 0 {
		p.FloorBytesPerSec = d.FloorBytesPerSec
	}
	return p
}

// Validate checks the parameter set for structural errors (negative knobs).
// Zero values are legal everywhere — they select defaults.
func (p Params) Validate() error {
	if p.Kind < Off || p.Kind > RoundRobin {
		return fmt.Errorf("qos: unknown scheduler kind %d", int(p.Kind))
	}
	switch {
	case p.FlowSlots < 0:
		return fmt.Errorf("qos: FlowSlots must be >= 0")
	case p.InflightChunks < 0:
		return fmt.Errorf("qos: InflightChunks must be >= 0")
	case p.QuantumBytes < 0:
		return fmt.Errorf("qos: QuantumBytes must be >= 0")
	case p.RateBytesPerSec < 0:
		return fmt.Errorf("qos: RateBytesPerSec must be >= 0")
	case p.BurstBytes < 0:
		return fmt.Errorf("qos: BurstBytes must be >= 0")
	case p.Tick < 0:
		return fmt.Errorf("qos: Tick must be >= 0")
	case p.TargetUtil < 0 || p.TargetUtil > 1:
		return fmt.Errorf("qos: TargetUtil must be in [0, 1]")
	case p.ShareCap < 0 || p.ShareCap > 1:
		return fmt.Errorf("qos: ShareCap must be in [0, 1]")
	case p.RecoverBytesPerSec < 0 || p.FloorBytesPerSec < 0:
		return fmt.Errorf("qos: recovery rates must be >= 0")
	}
	return nil
}

// New builds the scheduler of p.Kind; it is the only constructor. The
// engine is only required by Controller (its feedback tick); telemetry is
// required by the kinds that read the probe layer (FairShare's demand
// test, Controller's sampling). The other kinds accept nil for both.
func New(e *sim.Engine, p Params, tel *Telemetry) Scheduler {
	p = p.WithDefaults()
	switch p.Kind {
	case FairShare:
		if tel == nil {
			panic("qos: FairShare needs a telemetry probe")
		}
		return &fairShare{quantum: p.QuantumBytes, budget: p.InflightChunks, tel: tel, cur: -1}
	case TokenBucket:
		return &tokenBucket{rate: p.RateBytesPerSec, b: buckets{burst: float64(p.BurstBytes)}}
	case Controller:
		if e == nil || tel == nil {
			panic("qos: Controller needs an engine and a telemetry probe")
		}
		return &controller{e: e, p: p, tel: tel, b: buckets{burst: float64(p.BurstBytes)}}
	case AppOrdered:
		return appOrdered{}
	case RoundRobin:
		return &roundRobin{}
	default:
		return fifo{}
	}
}
