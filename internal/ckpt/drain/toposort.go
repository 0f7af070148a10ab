package drain

import (
	"fmt"
	"slices"

	"manasim/internal/ckpt"
	"manasim/internal/mpi"
)

func init() {
	ckpt.RegisterDrain("toposort", func() ckpt.DrainStrategy { return &TopoSort{} })
}

// TopoSort drains without issuing any global collective, following
// arXiv:2408.02218 ("Enabling Practical Transparent Checkpointing for
// MPI: A Topological Sort Approach"). Where the two-phase protocol
// synchronizes all ranks in an MPI_Alltoall before anyone drains, here
// each rank, the moment it reaches its cut, announces to every peer p
// point-to-point on the internal communicator the one number p needs:
// how many messages this rank sent to p. A rank pulls an announced
// peer's traffic as soon as the announcement arrives, instead of after
// a collective barrier, taking the peers announced since its last pass
// in ascending world-rank order. A rank still needs every peer's count
// before it can prove its cut complete, but that agreement is pairwise
// and non-collective: no rank blocks inside an MPI collective while
// another is late.
type TopoSort struct{}

// Name implements ckpt.DrainStrategy.
func (*TopoSort) Name() string { return "toposort" }

// Drain implements ckpt.DrainStrategy.
//
// With control-message faults armed the incremental drain is replaced
// by the reliable exchange: first collect every peer's count under the
// timeout-and-resend protocol, then pull everything. Incremental
// pulling is pointless under loss — a dropped announcement would stall
// it anyway — and the reliable exchange already proves all pre-cut
// traffic probeable when it returns.
func (s *TopoSort) Drain(env ckpt.DrainEnv) (err error) {
	// The phase survives an error return: the deadlock diagnostic reports
	// where each rank was when the job went down.
	defer func() {
		if err == nil {
			ckpt.SetPhase(env, "done")
		}
	}()
	n, me := env.Size(), env.Rank()
	if n == 1 {
		return nil
	}
	sent := env.SentTo()

	// Snapshot receive counters before any Pull mutates them.
	recvBase := append([]uint64(nil), env.RecvFrom()...)

	if rel, ok := reliableArmed(env); ok {
		counts, err := reliableCounts(env, rel, sent)
		if err != nil {
			return fmt.Errorf("drain/toposort: reliable counter exchange: %w", err)
		}
		return s.drainFull(env, counts, recvBase)
	}

	ckpt.SetPhase(env, "toposort:announce")
	// Announce to every peer how many messages this rank sent it. The
	// announcement is deposited after the rank's last pre-cut
	// application send, so a peer holding it knows our traffic toward it
	// is complete and already probeable (deposit-on-send transport).
	for p := 0; p < n; p++ {
		if p == me {
			continue
		}
		if err := env.CtlSend(p, ckpt.TagDrainCounters, []int64{int64(sent[p])}); err != nil {
			return fmt.Errorf("drain/toposort: announcing count to rank %d: %w", p, err)
		}
	}

	comms, err := env.Comms()
	if err != nil {
		return err
	}

	seen := make([]bool, n)
	expect := make([]int64, n)
	// Self traffic needs no announcement: this rank knows its own count.
	seen[me] = true
	if expect[me], err = expected(me, int64(sent[me]), recvBase); err != nil {
		return err
	}
	ready := []int{me}
	have := 1

	for {
		ckpt.SetPhase(env, fmt.Sprintf("toposort:drain counts=%d/%d", have, n))
		progressed := false

		// Absorb whatever announcements have arrived.
		for {
			ok, src, err := env.CtlIprobe(mpi.AnySource, ckpt.TagDrainCounters)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			vals, err := env.CtlRecv(src, ckpt.TagDrainCounters, 1)
			if err != nil {
				return err
			}
			if seen[src] {
				return fmt.Errorf("drain/toposort: duplicate counter announcement from rank %d", src)
			}
			seen[src] = true
			if expect[src], err = expected(src, vals[0], recvBase); err != nil {
				return err
			}
			ready = append(ready, src)
			have++
			progressed = true
		}

		// Drain the newly announced peers in ascending world-rank order,
		// which keeps the pull order deterministic. Their pre-cut
		// messages were deposited before the announcement, so every
		// expected message is already probeable.
		slices.Sort(ready)
		for _, w := range ready {
			for ; expect[w] > 0; expect[w]-- {
				if err := s.pullFrom(env, comms, w); err != nil {
					return err
				}
				progressed = true
			}
		}
		ready = ready[:0]

		if have == n {
			return nil
		}
		if !progressed {
			// Waiting on peers that have not reached their cut yet:
			// block until the next announcement instead of
			// spin-polling. Every missing peer still owes us its count
			// (announcements precede this loop on every rank), so the
			// wait always terminates — and under the event kernel a
			// spinning rank would never yield at all.
			if err := env.CtlWait(mpi.AnySource, ckpt.TagDrainCounters); err != nil {
				return err
			}
		}
	}
}

// drainFull pulls against every peer's count at once (the
// reliable-path epilogue), in ascending world-rank order.
func (s *TopoSort) drainFull(env ckpt.DrainEnv, counts, recvBase []uint64) error {
	comms, err := env.Comms()
	if err != nil {
		return err
	}
	ckpt.SetPhase(env, "toposort:pull")
	for w, count := range counts {
		want, err := expected(w, int64(count), recvBase)
		if err != nil {
			return err
		}
		for ; want > 0; want-- {
			if err := s.pullFrom(env, comms, w); err != nil {
				return err
			}
		}
	}
	return nil
}

// expected is the number of messages still in flight from rank src:
// the count src announced sending this rank, less the receives
// recorded before the drain.
func expected(src int, count int64, recvBase []uint64) (int64, error) {
	want := count - int64(recvBase[src])
	if want < 0 {
		return 0, fmt.Errorf("drain/toposort: counter underflow from rank %d: sent %d, received %d", src, count, recvBase[src])
	}
	return want, nil
}

// pullFrom locates and pulls one in-flight message from world rank w on
// any live communicator.
func (s *TopoSort) pullFrom(env ckpt.DrainEnv, comms []ckpt.DrainComm, w int) error {
	for _, c := range comms {
		src := -1
		for cr, wr := range c.World {
			if wr == w {
				src = cr
				break
			}
		}
		if src < 0 {
			continue
		}
		ok, st, err := env.Probe(c, src, mpi.AnyTag)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		got, err := env.Pull(c, st)
		if err != nil {
			return err
		}
		if got != w {
			return fmt.Errorf("drain/toposort: pulled message from rank %d while draining rank %d", got, w)
		}
		return nil
	}
	return fmt.Errorf("drain/toposort: rank %d announced more messages than are probeable", w)
}
