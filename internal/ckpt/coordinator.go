package ckpt

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"manasim/internal/ckptstore"
)

// TagAnnounce is the MANA-internal tag used on the internal
// communicator for checkpoint coordination messages (rank 0 announcing
// the agreed boundary).
const TagAnnounce = 1

// TagDrainCounters is the MANA-internal tag drain strategies use for
// counter announcements on the internal communicator.
const TagDrainCounters = 2

// TagDrainAck acknowledges a received counter announcement under the
// reliable drain protocol. Acks are never dropped by the fault
// injector: only the first transmission of a counter announcement is
// lossy, so the timeout-and-resend recovery terminates.
const TagDrainAck = 3

// TagDrainResend carries a retransmitted counter announcement after an
// ack timeout. Resends, like acks, are exempt from injected loss.
const TagDrainResend = 4

// DoubleDeliverError reports a rank delivering two images into the same
// checkpoint generation — a protocol violation that previously
// overwrote the first image silently.
type DoubleDeliverError struct {
	Rank int
	Gen  int // generation index (count of completed checkpoints)
}

func (e *DoubleDeliverError) Error() string {
	return fmt.Sprintf("ckpt: rank %d delivered twice into checkpoint generation %d", e.Rank, e.Gen)
}

// IncompleteSetError reports that no complete image set exists: either
// no checkpoint has finished, or a generation is still in flight.
type IncompleteSetError struct {
	Have, Want int
}

func (e *IncompleteSetError) Error() string {
	return fmt.Sprintf("ckpt: have %d/%d rank images", e.Have, e.Want)
}

// CtlLink is the rank-side transport for checkpoint coordination
// traffic: small int64 payloads over MANA's internal communicator,
// bracketed by the split-process boundary. internal/core implements it
// on top of the lower half.
type CtlLink interface {
	// CtlSend sends vals to dest under tag.
	CtlSend(dest, tag int, vals []int64) error
	// CtlIprobe polls for a pending control message from src (which may
	// be AnySource); on success it reports the actual source.
	CtlIprobe(src, tag int) (ok bool, source int, err error)
	// CtlWait blocks until a control message from src (which may be
	// AnySource) with tag is probeable, without receiving it. Drain
	// strategies that wait for peer announcements use it instead of
	// spin-polling CtlIprobe: under the event kernel a spinning rank
	// never yields, and under the goroutine kernel the spin burns a
	// core.
	CtlWait(src, tag int) error
	// CtlRecv receives count int64 values from src under tag.
	CtlRecv(src, tag, count int) ([]int64, error)
}

// DefaultSkewBound is the boundary lag rank 0 announces an asynchronous
// checkpoint request with when the caller sets none.
const DefaultSkewBound = 8

// Coordinator drives checkpoints across the ranks of one MANA job. It
// plays the role of the DMTCP coordinator in real MANA: an entity
// outside the ranks that requests checkpoints and collects images into
// the generation-chained checkpoint store. The store is the only place
// delivered image bytes live once a generation commits; the coordinator
// itself holds nothing but the in-flight generation's staged images.
type Coordinator struct {
	n     int
	store *ckptstore.Store
	lag   int

	// atStep is a preset checkpoint boundary (deterministic tests and
	// scheduled checkpoints); <0 means none.
	atStep atomic.Int64
	// asyncReq requests a checkpoint "now": rank 0 picks the boundary
	// at its next safe point and announces it (the signal path).
	asyncReq atomic.Bool
	// announced is set once rank 0 has broadcast the agreed boundary;
	// non-root ranks poll for the announcement while it is set.
	announced atomic.Bool

	mu sync.Mutex
	// gen stages the current generation's delivered images by rank; a
	// generation reaches the store only when every rank has delivered,
	// so the store never records a partial generation.
	gen map[int][]byte
	// taken counts checkpoint generations completed by THIS coordinator
	// (a restarted job reuses a store with earlier generations).
	taken int

	// rootMu guards what rank 0 publishes for AwaitRoot: the last
	// boundary it finished agreeing on (math.MaxInt once its rank has
	// exited) and how many announcements it has sent. annSeen counts the
	// announcements each rank received; a rank touches only its own slot.
	rootMu   sync.Mutex
	rootCond *sync.Cond
	rootStep int
	rootAnn  int
	annSeen  []int
}

// NewCoordinator builds a coordinator for an n-rank job delivering into
// st, which must be non-nil. lag is the skew bound of asynchronous
// requests (DefaultSkewBound when <= 0).
func NewCoordinator(n int, st *ckptstore.Store, lag int) *Coordinator {
	if st == nil {
		panic("ckpt: NewCoordinator needs a checkpoint store")
	}
	if lag <= 0 {
		lag = DefaultSkewBound
	}
	c := &Coordinator{n: n, store: st, lag: lag, gen: make(map[int][]byte), rootStep: -1, annSeen: make([]int, n)}
	c.rootCond = sync.NewCond(&c.rootMu)
	c.atStep.Store(-1)
	return c
}

// RequestCheckpointAtStep schedules a checkpoint at the given step
// boundary (before executing that step). All ranks observe the same
// target, so no agreement traffic is needed.
func (c *Coordinator) RequestCheckpointAtStep(s int) { c.atStep.Store(int64(s)) }

// RequestCheckpoint asks for a checkpoint as soon as possible: rank 0
// picks a boundary a few steps ahead at its next safe point and
// announces it to all ranks over MANA's internal communicator — the
// simulator's stand-in for the checkpoint signal.
func (c *Coordinator) RequestCheckpoint() { c.asyncReq.Store(true) }

// Store exposes the generation-chained checkpoint store.
func (c *Coordinator) Store() *ckptstore.Store { return c.store }

// Taken reports how many complete checkpoints this coordinator wrote.
func (c *Coordinator) Taken() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.taken
}

// Images returns the most recent committed generation as full images
// ordered by rank, materializing base+delta chains. It returns an
// *IncompleteSetError when the store holds no complete generation.
func (c *Coordinator) Images() ([][]byte, error) {
	c.mu.Lock()
	staged := len(c.gen)
	c.mu.Unlock()
	if _, ok := c.store.Head(); !ok {
		return nil, &IncompleteSetError{Have: staged, Want: c.n}
	}
	images, _, err := c.store.MaterializeHead()
	return images, err
}

// Deliver records one rank's encoded image for the current generation.
// A rank delivering twice into the same generation is a protocol
// violation reported as *DoubleDeliverError. The generation is
// committed to the store only once every rank has delivered; a killed
// rank therefore leaves nothing behind but staged bytes that die with
// the coordinator.
//
// The store commit issued by the last-delivering rank is where the
// parallel checkpoint pipeline runs: Store.Commit fans per-rank decode,
// indexing, and backend writes out to its worker pool. Deliver itself
// stays under the coordinator mutex — every other rank of the job is
// parked at the post-checkpoint barrier until the commit returns, so
// there is no concurrent delivery to unblock.
func (c *Coordinator) Deliver(rank int, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rank < 0 || rank >= c.n {
		return fmt.Errorf("ckpt: deliver from rank %d of a %d-rank job", rank, c.n)
	}
	if _, dup := c.gen[rank]; dup {
		return &DoubleDeliverError{Rank: rank, Gen: c.taken}
	}
	c.gen[rank] = data
	if len(c.gen) == c.n {
		set := make([][]byte, c.n)
		for r, img := range c.gen {
			set[r] = img
		}
		if _, err := c.store.Commit(set); err != nil {
			return fmt.Errorf("ckpt: committing generation: %w", err)
		}
		c.taken++
		c.gen = make(map[int][]byte)
	}
	return nil
}

// ---------------------------------------------------------------------
// boundary agreement

// NextBoundary runs one rank's side of the boundary-agreement protocol
// at a safe point. pending is the rank's currently agreed target step
// (-1: none); the return value is the updated target. Rank 0 answers an
// asynchronous request by picking a boundary lag steps ahead and
// announcing it over the control link; other ranks poll the link while
// an announcement is in flight.
func (c *Coordinator) NextBoundary(link CtlLink, rank, step, total, pending int) (int, error) {
	if rank == 0 {
		defer c.publishRoot(func() { c.rootStep = step })
	}
	// Preset target (deterministic scheduling).
	if t := int(c.atStep.Load()); t >= 0 && pending < 0 {
		pending = clampStep(t, total)
	}

	// Async signal path: rank 0 picks the boundary and announces it.
	if c.asyncReq.Load() && !c.announced.Load() && pending < 0 && rank == 0 {
		s := clampStep(step+c.lag, total)
		pending = s
		for p := 1; p < c.n; p++ {
			if err := link.CtlSend(p, TagAnnounce, []int64{int64(s)}); err != nil {
				return pending, fmt.Errorf("ckpt: announcing checkpoint: %w", err)
			}
		}
		c.announced.Store(true)
		c.publishRoot(func() { c.rootAnn++ })
	}

	// Non-root ranks poll for an announcement at every safe point. The
	// poll is deliberately not gated on c.announced: with periodic
	// checkpoints, a rank still finishing generation k calls
	// CheckpointDone — clearing the flags — after rank 0 has already
	// announced generation k+1, and a flag-gated poll would miss that
	// announcement forever (the announcing rank then parks alone in the
	// next drain: deadlock). The message's presence is the ground truth.
	if pending < 0 && rank != 0 {
		ok, _, err := link.CtlIprobe(0, TagAnnounce)
		if err != nil {
			return pending, err
		}
		if ok {
			vals, err := link.CtlRecv(0, TagAnnounce, 1)
			if err != nil {
				return pending, err
			}
			c.annSeen[rank]++
			s := int(vals[0])
			if step > s {
				return pending, fmt.Errorf("ckpt: checkpoint skew bound exceeded: rank %d at step %d, target %d (raise Config.SkewBound)", rank, step, s)
			}
			pending = s
		}
	}
	return pending, nil
}

// AwaitRoot blocks non-root rank at boundary step, outside virtual
// time, until rank 0 can no longer announce a checkpoint the rank's
// probe at step would miss: rank 0 has finished its own agreement at
// step or beyond, has sent an announcement the rank has not received,
// or has exited (RootExited). Ranks run ahead of rank 0 in wall time
// under the goroutine kernel; without the wait, a rank probing before
// rank 0 has sent an announcement stamped earlier in virtual time
// either overshoots the target (skew error) or, at its final boundary,
// leaves for Finalize while rank 0 parks alone in the drain. It cannot
// deadlock: a rank at boundary step has sent everything rank 0 needs to
// reach step. The event kernel runs one rank at a time and must not
// block here.
func (c *Coordinator) AwaitRoot(rank, step int) {
	c.rootMu.Lock()
	defer c.rootMu.Unlock()
	for c.rootStep < step && c.rootAnn == c.annSeen[rank] {
		c.rootCond.Wait()
	}
}

// RootExited records that rank 0's activity returned, for whatever
// reason, releasing every rank blocked in AwaitRoot.
func (c *Coordinator) RootExited() { c.publishRoot(func() { c.rootStep = math.MaxInt }) }

// publishRoot applies an update to rank 0's published progress and wakes
// the ranks waiting on it.
func (c *Coordinator) publishRoot(update func()) {
	c.rootMu.Lock()
	update()
	c.rootMu.Unlock()
	c.rootCond.Broadcast()
}

// CheckpointDone clears the request state after every rank checkpointed
// at the given boundary. Every rank consumed its announcement before
// checkpointing, so clearing the flags here is idempotent and
// race-free.
func (c *Coordinator) CheckpointDone(step, total int) {
	if t := c.atStep.Load(); t >= 0 && clampStep(int(t), total) == step {
		c.atStep.Store(-1)
	}
	c.asyncReq.Store(false)
	c.announced.Store(false)
}

// clampStep bounds a checkpoint target to the final boundary.
func clampStep(s, total int) int {
	if s > total {
		return total
	}
	return s
}
