// Package cluster launches simulated MPI jobs: one lower-half library
// instance per rank over one shared transport fabric, executed by one of
// two simulation kernels. It is the moral equivalent of srun/mpirun in
// this repository.
//
// The goroutine kernel (default) runs one OS-scheduled goroutine per
// rank and lets the Go runtime interleave them — simple, parallel, and
// the conformance oracle. The event kernel serializes the same rank
// bodies through internal/kernel's virtual-time event queue, so idle
// ranks cost nothing and jobs scale to thousands of ranks; it also
// detects deadlock (every rank blocked with no message in flight)
// instead of hanging. Small runs must produce identical results on both.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"manasim/internal/kernel"
	"manasim/internal/mpi"
	"manasim/internal/simtime"
	"manasim/internal/transport"
)

// KernelKind selects the simulation kernel executing a job's ranks.
type KernelKind int

const (
	// KernelGoroutine is the default: one OS-scheduled goroutine per
	// rank, blocking receives park on mailbox condition variables.
	KernelGoroutine KernelKind = iota
	// KernelEvent serializes ranks through a central virtual-time event
	// queue (internal/kernel): deterministic, deadlock-detecting, and
	// wall-clock scales with event count instead of rank count.
	KernelEvent
)

// String names the kernel ("goroutine", "event").
func (k KernelKind) String() string {
	switch k {
	case KernelGoroutine:
		return "goroutine"
	case KernelEvent:
		return "event"
	default:
		return fmt.Sprintf("KernelKind(%d)", int(k))
	}
}

// ParseKernel resolves a kernel name; the empty string selects the
// default goroutine kernel.
func ParseKernel(name string) (KernelKind, error) {
	switch name {
	case "", "goroutine":
		return KernelGoroutine, nil
	case "event":
		return KernelEvent, nil
	default:
		return 0, fmt.Errorf("cluster: unknown kernel %q (have goroutine, event)", name)
	}
}

// Factory instantiates one rank's lower-half MPI library. The impls
// package registers the four simulated implementations as Factories.
type Factory func(fab *transport.Fabric, rank int, clock *simtime.Clock, net simtime.NetModel) mpi.Proc

// RankFn is the body executed by each rank of a job. proc is the rank's
// own lower-half library; clock is its virtual clock.
type RankFn func(rank int, proc mpi.Proc, clock *simtime.Clock) error

// Result summarizes a completed job.
type Result struct {
	// VT is the job's virtual runtime: the maximum rank clock at exit
	// (how long the job would have taken on the modeled hardware).
	VT time.Duration
	// PerRankVT holds each rank's final virtual time.
	PerRankVT []time.Duration
	// Wall is the real time the simulation took.
	Wall time.Duration
}

// RankError wraps an error with the rank that produced it.
type RankError struct {
	Rank int
	Err  error
}

// Error implements the error interface.
func (e *RankError) Error() string { return fmt.Sprintf("rank %d: %v", e.Rank, e.Err) }

// Unwrap exposes the underlying error.
func (e *RankError) Unwrap() error { return e.Err }

// Job is a configured but independently steerable job: callers that need
// access to the fabric or per-rank procs (MANA's restart path does) use
// New/Start/WaitResult instead of the one-shot Run.
type Job struct {
	Fabric *transport.Fabric
	Clocks []*simtime.Clock
	Procs  []mpi.Proc

	n       int
	kern    *kernel.Kernel // nil under the goroutine kernel
	errs    []error
	wg      sync.WaitGroup
	started time.Time

	// label names the job and nodeOf pins each rank to a scheduler
	// node once multiple jobs share a process (internal/sched); both
	// feed the deadlock diagnostics. Set via SetIdentity before Start.
	label  string
	nodeOf []int

	// phaseMu guards phases, the per-rank drain-protocol phase board the
	// stall diagnostic reads while rank goroutines are still writing it.
	phaseMu sync.Mutex
	phases  []string
}

// SetIdentity names the job and records its rank-to-node placement
// (nodeOf[rank] = scheduler node, nil when the job owns the process).
// With multiple scheduler-resident jobs, failure and deadlock
// diagnostics must say which job and node they refer to; an anonymous
// "rank 3" is ambiguous. Call before Start.
func (j *Job) SetIdentity(label string, nodeOf []int) {
	j.label = label
	if len(nodeOf) == j.n {
		j.nodeOf = nodeOf
	}
}

// Label returns the job's scheduler-assigned name ("" when unset).
func (j *Job) Label() string { return j.label }

// NodeOf returns the scheduler node hosting rank, or -1 when no
// placement was recorded.
func (j *Job) NodeOf(rank int) int {
	if j.nodeOf == nil || rank < 0 || rank >= j.n {
		return -1
	}
	return j.nodeOf[rank]
}

// SetRankPhase records rank's current drain-protocol phase ("" clears
// it). The checkpoint layer posts phases so that a deadlock diagnostic
// can say where each parked rank was, not just that it was parked.
func (j *Job) SetRankPhase(rank int, phase string) {
	if rank < 0 || rank >= j.n {
		return
	}
	j.phaseMu.Lock()
	j.phases[rank] = phase
	j.phaseMu.Unlock()
}

// rankPhases renders the non-empty phase entries for the deadlock
// diagnostic, e.g. "rank 0: reliable:absorb counts=3/4 acks=2/4".
func (j *Job) rankPhases() string {
	j.phaseMu.Lock()
	defer j.phaseMu.Unlock()
	out := ""
	for r, p := range j.phases {
		if p == "" || p == "done" {
			continue
		}
		if out != "" {
			out += "; "
		}
		if j.nodeOf != nil {
			out += fmt.Sprintf("rank %d (node %d): %s", r, j.nodeOf[r], p)
		} else {
			out += fmt.Sprintf("rank %d: %s", r, p)
		}
	}
	if out == "" {
		return "no rank reported a drain phase"
	}
	return out
}

// crashError matches the fault injector's typed node-crash failure
// without importing it: the contract is the CrashVT method.
type crashError interface {
	error
	CrashVT() time.Duration
}

// New builds a job with n ranks over a fresh fabric, instantiating the
// lower half with the given implementation factory. The job runs on the
// default goroutine kernel; NewKernel selects explicitly.
func New(n int, factory Factory, net simtime.NetModel) *Job {
	return NewKernel(n, factory, net, KernelGoroutine)
}

// NewKernel builds a job executed by the given simulation kernel. The
// event kernel's scheduler is attached to the fabric before any lower
// half is instantiated, so every blocking point of the job — including
// context agreement at startup — runs event-driven.
func NewKernel(n int, factory Factory, net simtime.NetModel, kind KernelKind) *Job {
	fab := transport.NewFabric(n)
	j := &Job{
		Fabric: fab,
		Clocks: make([]*simtime.Clock, n),
		Procs:  make([]mpi.Proc, n),
		n:      n,
		errs:   make([]error, n),
		phases: make([]string, n),
	}
	if kind == KernelEvent {
		j.kern = kernel.New(n)
		fab.SetScheduler(j.kern, net.TransferCost)
		j.kern.OnStall(func() {
			// Deadlock: every rank parked in a receive with nothing in
			// flight. Tear the fabric down so the parked ranks fail with
			// ErrClosed instead of hanging the simulation.
			fab.Close()
		})
	}
	for r := 0; r < n; r++ {
		j.Clocks[r] = simtime.NewClock()
		j.Procs[r] = factory(fab, r, j.Clocks[r], net)
		if ab, ok := j.Procs[r].(interface{ SetAbort(func(int)) }); ok {
			ab.SetAbort(func(code int) {
				// An abort tears down the interconnect: every rank
				// blocked in communication fails fast, like a real
				// MPI_Abort killing the job step.
				fab.Close()
			})
		}
	}
	return j
}

// Start launches all rank activities.
func (j *Job) Start(fn RankFn) {
	j.started = time.Now()
	body := func(rank int) {
		defer func() {
			if p := recover(); p != nil {
				j.errs[rank] = fmt.Errorf("panic: %v", p)
				j.Fabric.Close()
			}
		}()
		j.errs[rank] = fn(rank, j.Procs[rank], j.Clocks[rank])
		if j.errs[rank] != nil {
			// A failed rank aborts the job step so peers blocked in
			// communication do not hang.
			j.Fabric.Close()
		}
	}
	if j.kern != nil {
		for r := 0; r < j.n; r++ {
			j.wg.Add(1)
			rank := r
			j.kern.Go(rank, func() {
				defer j.wg.Done()
				body(rank)
			})
		}
		j.kern.Start()
		return
	}
	for r := 0; r < j.n; r++ {
		j.wg.Add(1)
		go func(rank int) {
			defer j.wg.Done()
			body(rank)
		}(r)
	}
}

// WaitResult blocks until every rank returns and reports the outcome.
// The error is the lowest-rank failure, wrapped with its rank.
func (j *Job) WaitResult() (Result, error) {
	j.wg.Wait()
	res := Result{
		PerRankVT: make([]time.Duration, j.n),
		Wall:      time.Since(j.started),
	}
	for r := 0; r < j.n; r++ {
		res.PerRankVT[r] = j.Clocks[r].Now()
		if res.PerRankVT[r] > res.VT {
			res.VT = res.PerRankVT[r]
		}
	}
	var err error
	for r := 0; r < j.n; r++ {
		if j.errs[r] != nil {
			inner := j.errs[r]
			if j.kern != nil && j.kern.Stalled() {
				owner := ""
				if j.label != "" {
					owner = fmt.Sprintf("job %q: ", j.label)
				}
				inner = fmt.Errorf("%sevent-kernel deadlock (every rank blocked with no message in flight; %s): %w", owner, j.rankPhases(), inner)
			}
			err = &RankError{Rank: r, Err: inner}
			break
		}
	}
	// An injected node crash tears down the fabric, so peers fail with
	// transport-closed errors; the crash itself is the root cause and is
	// preferred over a lower-ranked peer's secondary failure.
	if err != nil {
		var ce crashError
		if !errors.As(err, &ce) {
			for r := 0; r < j.n; r++ {
				if j.errs[r] != nil && errors.As(j.errs[r], &ce) {
					err = &RankError{Rank: r, Err: j.errs[r]}
					break
				}
			}
		}
	}
	j.Fabric.Close()
	return res, err
}

// Run executes fn on n ranks under the goroutine kernel and waits.
func Run(n int, factory Factory, net simtime.NetModel, fn RankFn) (Result, error) {
	return RunKernel(n, factory, net, KernelGoroutine, fn)
}

// RunKernel executes fn on n ranks under the selected kernel and waits.
func RunKernel(n int, factory Factory, net simtime.NetModel, kind KernelKind, fn RankFn) (Result, error) {
	j := NewKernel(n, factory, net, kind)
	j.Start(fn)
	return j.WaitResult()
}
