// Package mana is the checkpoint-restart system itself: the Go
// reproduction of MANA with the paper's implementation-oblivious
// virtual-id architecture.
//
// A Runtime is one rank's MANA instance. It implements mpi.Proc, so an
// application cannot tell whether it runs natively or under MANA: every
// call is a wrapper (Figure 1's stub functions) that
//
//  1. crosses the split-process boundary (charging the fs-register
//     switch cost and counting a context switch),
//  2. translates virtual handles to physical handles through the
//     virtual-id store,
//  3. invokes the lower-half MPI library,
//  4. translates results back and records creation recipes for restart.
//
// Checkpointing follows MANA's coordinated protocol: stop ranks at safe
// points, complete pending receives, exchange per-peer send counters
// over the lower half (MPI_Alltoall, Section 5 category 3), drain
// in-flight messages with MPI_Iprobe + MPI_Recv (category 1), and write
// per-rank images containing the upper-half state. Restart launches a
// fresh lower half — possibly a different MPI implementation — and
// re-creates every MPI object from the virtual-id descriptors, rebinding
// virtual ids to the new physical handles (Section 4.2).
package mana

import (
	"fmt"
	"time"

	"manasim/internal/ckpt"
	"manasim/internal/ckptstore"
	"manasim/internal/cluster"
	"manasim/internal/faults"
	"manasim/internal/fsim"
	"manasim/internal/simtime"
	"manasim/internal/vid"
	"manasim/internal/vidlegacy"
)

// Design selects the virtual-id subsystem.
type Design string

// Supported designs.
const (
	// DesignVirtID is the paper's new single-table design.
	DesignVirtID Design = "virtid"
	// DesignLegacy is the pre-paper per-kind string-keyed map design
	// (MPICH family only).
	DesignLegacy Design = "legacy"
)

// Config parameterizes a MANA job.
type Config struct {
	// ImplName names the lower-half MPI implementation.
	ImplName string
	// Factory instantiates the lower half per rank.
	Factory cluster.Factory
	// Design selects the virtual-id subsystem (default DesignVirtID).
	Design Design
	// GGIDPolicy selects when global group ids are computed
	// (default eager, the paper's current policy; Section 9).
	GGIDPolicy vid.GGIDPolicy
	// UniformHandles embeds virtual ids in 64-bit MANA handles
	// regardless of the target header, enabling restart under a
	// different MPI implementation (Section 9 future work).
	UniformHandles bool
	// Host supplies the crossing cost and network model.
	Host simtime.HostProfile
	// DtypeStrategy selects datatype reconstruction: replay of recorded
	// constructor calls, or decode via MPI_Type_get_envelope/contents at
	// checkpoint time (Section 1.2 novelty 4; Section 5 category 2).
	DtypeStrategy vid.Strategy
	// FS is the checkpoint filesystem profile (default NFSv3). When the
	// checkpoint store's backend models a storage tier of its own (the
	// "obj" and "tier" backends report a ckptstore CostModel), that
	// profile governs checkpoint writes and store restarts instead.
	FS fsim.FS
	// ExitAtCheckpoint stops the job right after a checkpoint completes
	// (preemption, the urgent-HPC scenario of the introduction).
	ExitAtCheckpoint bool
	// CkptStopVT, when positive, makes rank 0 request a checkpoint at
	// the first step boundary it reaches at or after this virtual time —
	// the scheduler's preemption cut: "drain and commit as soon as you
	// have run this long". Combined with ExitAtCheckpoint the job parks
	// right after the commit. The actual stop lands at the first safe
	// boundary past the cut, so the drained VT is deterministic but not
	// exactly CkptStopVT.
	CkptStopVT time.Duration
	// JobLabel names the job in multi-job diagnostics: deadlock reports
	// and injected CrashErrors carry it (internal/sched sets it to the
	// scheduler job id).
	JobLabel string
	// Placement pins rank i to scheduler node Placement[i]. It flows to
	// the cluster layer (diagnostics) and the fault injector, where a
	// node-targeted crash kills every rank placed on the node.
	Placement []int
	// SkewBound is the maximum step skew tolerated between ranks when
	// coordinating an asynchronous checkpoint request (default
	// ckpt.DefaultSkewBound).
	SkewBound int
	// DrainStrategy names the in-flight message drain algorithm used at
	// checkpoint time (default ckpt.DefaultDrain, the paper's two-phase
	// counter exchange; "toposort" selects the collective-free
	// topological-sort drain of arXiv:2408.02218). Strategies are
	// registered by internal/ckpt/drain.
	DrainStrategy string
	// Store is the generation-chained checkpoint store the job delivers
	// into and restarts from; it alone decides how checkpoint bytes are
	// encoded and kept (delta, dedup, compression, chunking, backend,
	// worker pool — see ckptstore.Options). Nil gets a fresh in-memory
	// full-image store whose backend is wrapped by Faults.WrapBackend
	// when an injector is set; callers that want any other format open
	// the store themselves. Passing the same store across a run/restart
	// chain makes later generations delta against earlier ones.
	Store *ckptstore.Store
	// FixedXlatCost, when positive, replaces the measured virtual-id
	// translation time each wrapper charges to the rank clock with this
	// fixed modeled cost. The default (zero, measured) is what lets the
	// single-table vs legacy-map difference emerge from real data
	// structure cost (Figure 2), but measured time is nanosecond-noisy
	// and run-to-run variation leaks into every downstream virtual
	// timestamp. Fixing it makes a run bit-reproducible — required for
	// byte-identical cross-kernel Stats comparisons.
	FixedXlatCost time.Duration
	// Kernel selects the simulation kernel executing the job's ranks:
	// cluster.KernelGoroutine (default) runs one OS-scheduled goroutine
	// per rank; cluster.KernelEvent serializes the same rank bodies
	// through a central virtual-time event queue, which is deterministic,
	// detects communication deadlock, and keeps simulation wall-clock
	// proportional to event count instead of rank count — the kernel the
	// 1024-rank drain sweeps run on. core, harness, and the
	// checkpoint/drain paths run unchanged on either kernel.
	Kernel cluster.KernelKind
	// Faults is the seeded fault injector driving this job (nil: no
	// faults). The runtime checks its crash schedule at every wrapper
	// call and step boundary, applies its straggler windows to the rank
	// clocks, and registers the internal communicator's context for the
	// control-message filter; the job layer validates the kernel choice
	// and attaches the transport filter. One injector may be shared by a
	// whole service run spanning restarts — its schedule lives in
	// cumulative service virtual time.
	Faults *faults.Injector
	// CkptInterval, when positive, checkpoints periodically: rank 0
	// requests an asynchronous checkpoint whenever that much virtual
	// time has passed since the last completed one. This is the knob the
	// MTBF-adaptive interval controller turns between restart attempts.
	CkptInterval time.Duration
	// StreamRestart selects the chunk-pipelined restart path:
	// RestartFromStore resolves each rank's base+delta chain with
	// newest-wins chunk ownership (ckptstore.MaterializeStream), so
	// superseded chunks are never decompressed, peak restart memory
	// drops to O(image + chunk), and the filesystem model charges the
	// compressed bytes of winning chunks as one pipelined read. Batch
	// materialization remains the default; both produce byte-identical
	// application state.
	StreamRestart bool
	// RestartFallback lets RestartJobFromStore degrade to an older
	// generation when the newest one is quarantined or fails to
	// materialize (silent corruption, missing blobs): the walk tries
	// each generation newest-first, skipping quarantined ones, stopping
	// only at pruned territory — retention deleted everything older — or
	// when every generation is exhausted. The restart is never silent
	// about it: Stats.RestartGen names the generation actually used, and
	// the store is forced to a full base so no new delta chains onto the
	// damaged head. Off by default: a damaged head fails the restart
	// with a typed error.
	RestartFallback bool
}

// withDefaults fills unset fields.
func (c Config) withDefaults() (Config, error) {
	if c.Factory == nil {
		return c, fmt.Errorf("mana: config needs an MPI implementation factory")
	}
	if c.Design == "" {
		c.Design = DesignVirtID
	}
	if c.FS.Name == "" {
		c.FS = fsim.NFSv3()
	}
	if c.Host.Name == "" {
		c.Host = simtime.Discovery()
	}
	if c.DrainStrategy == "" {
		c.DrainStrategy = ckpt.DefaultDrain
	}
	return c, nil
}

// ckptStoreFor resolves the checkpoint store an n-rank job delivers
// into: the configured one (validated against the job geometry) or a
// fresh in-memory full-image store under the fault injector's wrapper.
func (c Config) ckptStoreFor(n int) (*ckptstore.Store, error) {
	if c.Store != nil {
		if c.Store.Ranks() != n {
			return nil, fmt.Errorf("mana: checkpoint store is for %d ranks, job has %d", c.Store.Ranks(), n)
		}
		return c.Store, nil
	}
	var wrap func(ckptstore.Backend) ckptstore.Backend
	if c.Faults != nil {
		wrap = c.Faults.WrapBackend()
	}
	return ckptstore.Open(n, ckptstore.Options{WrapBackend: wrap})
}

// newStore builds the configured vid store for a lower half with the
// given handle width.
func (c Config) newStore(handleBits int) (vid.Store, error) {
	switch c.Design {
	case DesignVirtID:
		return vid.NewStore(handleBits, c.UniformHandles), nil
	case DesignLegacy:
		s := vidlegacy.New()
		if err := s.CompatibleWith(handleBits); err != nil {
			return nil, err
		}
		return s, nil
	default:
		return nil, fmt.Errorf("mana: unknown vid design %q", c.Design)
	}
}

// restoreStore rebuilds a store from an image snapshot.
func restoreStore(s vid.StoreSnapshot, handleBits int, uniform bool) (vid.Store, error) {
	switch Design(s.Design) {
	case DesignVirtID:
		return vid.RestoreStore(s, handleBits, uniform)
	case DesignLegacy:
		st, err := vidlegacy.Restore(s)
		if err != nil {
			return nil, err
		}
		if err := st.CompatibleWith(handleBits); err != nil {
			return nil, err
		}
		return st, nil
	default:
		return nil, fmt.Errorf("mana: image has unknown vid design %q", s.Design)
	}
}
