// Package numa models the two-level (local/remote) memory hierarchy of the
// paper's target architectures.
//
// The Butterfly the paper measures has remote accesses roughly 4x slower
// than local ones; the paper additionally injects artificial delays into
// each remote operation "to simulate a higher-cost remote access
// architecture" (Section 4.3, 1 µs .. 100 ms per operation). This package
// provides that cost model in two forms:
//
//   - CostModel: pure accounting (integer virtual microseconds), used by
//     the discrete-event simulator in internal/sim;
//   - Delayer: wall-clock busy-wait injection for the real concurrent
//     pool, so goroutine-based runs can emulate loosely-coupled machines.
package numa

import "time"

// Kind classifies a memory access by the object touched.
type Kind int

// Access kinds. Costs follow Section 3 of the paper: "typical undelayed
// segment operation times are approximately 70 µs for add operations and
// 110 µs for remove operations", remote accesses ~4x local, and the tree's
// round counters "must reside somewhere ... in any case [the tree] is
// likely to be remote for most of the processors".
const (
	AccessProbe  Kind = iota + 1 // examine a segment's size
	AccessAdd                    // add an element to a segment
	AccessRemove                 // remove an element from a segment
	AccessSplit                  // split half of a segment into another
	AccessNode                   // read or update a tree round counter
	AccessShared                 // shared scalar (looker count, op count)
)

// String names the access kind.
func (k Kind) String() string {
	switch k {
	case AccessProbe:
		return "probe"
	case AccessAdd:
		return "add"
	case AccessRemove:
		return "remove"
	case AccessSplit:
		return "split"
	case AccessNode:
		return "node"
	case AccessShared:
		return "shared"
	default:
		return "unknown"
	}
}

// CostModel maps accesses to virtual time (microseconds). The zero value is
// not useful; start from ButterflyCosts.
type CostModel struct {
	// Local base costs per access kind, in virtual µs.
	ProbeCost  int64
	AddCost    int64
	RemoveCost int64
	SplitCost  int64
	NodeCost   int64
	SharedCost int64

	// RemoteFactor multiplies the base cost of a remote access (the
	// Butterfly's is about 4).
	RemoteFactor int64

	// RemoteExtra is added to every remote segment access and every tree
	// node access: the paper's Section 4.3 sweep parameter ("to simulate a
	// higher-cost remote access architecture", 1 µs .. 100 ms per
	// operation). Under a non-nil Topo it is scaled by the hop distance
	// between accessor and home.
	RemoteExtra int64

	// Topo assigns hop distances to processor pairs; RemoteExtra is
	// multiplied by the distance of each remote access. Nil behaves like
	// Uniform (every remote pair one hop — the Butterfly's flat switch
	// network), preserving the paper's two-level model.
	Topo Topology

	// NodeRemote, when true, charges tree-node accesses at the remote rate
	// regardless of the accessor (the paper treats the superimposed tree
	// as "likely to be remote for most of the processors").
	NodeRemote bool
}

// ButterflyCosts returns the cost model calibrated to the paper's reported
// Butterfly numbers: 70 µs local add, 110 µs local remove, remote accesses
// about 4x local. The measured segments are "a single counter that is
// atomically added to, subtracted from, or split in half", so a probe is a
// single remote reference (a few µs), while a tree-node visit takes the
// node's lock around an examine/modify pair ("the overhead of traversing
// the tree (and its locks) is comparable to the segment access time").
func ButterflyCosts() CostModel {
	return CostModel{
		ProbeCost:    4,
		AddCost:      70,
		RemoveCost:   110,
		SplitCost:    40,
		NodeCost:     45,
		SharedCost:   5,
		RemoteFactor: 4,
		NodeRemote:   true,
	}
}

// WithExtraDelay returns a copy of the model with the Section 4.3 per-
// remote-operation delay set to d virtual µs.
func (m CostModel) WithExtraDelay(d int64) CostModel {
	m.RemoteExtra = d
	return m
}

// WithTopology returns a copy of the model with the given hop-distance
// topology; remote accesses are charged RemoteExtra times the distance.
func (m CostModel) WithTopology(t Topology) CostModel {
	m.Topo = t
	return m
}

// hops returns the distance multiplier for a remote access from proc to
// home: 1 under a nil topology or for shared/interleaved objects
// (home < 0), otherwise the topology's distance floored at 1.
func (m CostModel) hops(proc, home int) int64 {
	if m.Topo == nil || home < 0 || proc < 0 {
		return 1
	}
	d := m.Topo.Distance(proc, home)
	if d < 1 {
		d = 1
	}
	return int64(d)
}

// base returns the local base cost for an access kind.
func (m CostModel) base(kind Kind) int64 {
	switch kind {
	case AccessProbe:
		return m.ProbeCost
	case AccessAdd:
		return m.AddCost
	case AccessRemove:
		return m.RemoveCost
	case AccessSplit:
		return m.SplitCost
	case AccessNode:
		return m.NodeCost
	case AccessShared:
		return m.SharedCost
	default:
		return 0
	}
}

// Cost returns the virtual µs charged to processor proc for an access of
// the given kind to an object homed on processor home. home < 0 denotes an
// interleaved/shared object charged at the local rate.
func (m CostModel) Cost(kind Kind, proc, home int) int64 {
	c := m.base(kind)
	remote := home >= 0 && home != proc
	if kind == AccessNode && m.NodeRemote {
		remote = true
	}
	if remote {
		f := m.RemoteFactor
		if f < 1 {
			f = 1
		}
		c = c*f + m.RemoteExtra*m.hops(proc, home)
	}
	return c
}

// Delayer injects wall-clock delays for the real concurrent pool, turning
// the same cost model into busy-waits (1 virtual µs = Scale of wall time).
// A zero Delayer injects nothing.
type Delayer struct {
	Model CostModel
	// Scale converts one virtual microsecond into wall time. Zero disables
	// injection entirely.
	Scale time.Duration
}

// Delay busy-waits for the scaled cost of the access. Busy-waiting (rather
// than sleeping) mirrors a processor stalled on a remote reference: the
// paper's delays model latency the processor cannot overlap. The pointer
// receiver keeps the no-op call on the disabled hot path from copying the
// whole struct (CostModel embeds an interface and five words), and a
// zero Scale costs the caller one inlined test.
func (d *Delayer) Delay(kind Kind, proc, home int) {
	if d.Scale == 0 {
		return
	}
	d.delay(kind, proc, home)
}

// delay is Delay's out-of-line half: the busy-wait under a non-zero Scale.
//
//go:noinline
func (d *Delayer) delay(kind Kind, proc, home int) {
	c := d.Model.Cost(kind, proc, home)
	if c <= 0 {
		return
	}
	deadline := time.Now().Add(time.Duration(c) * d.Scale)
	for time.Now().Before(deadline) {
	}
}
