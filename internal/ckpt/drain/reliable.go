package drain

import (
	"fmt"

	"manasim/internal/ckpt"
	"manasim/internal/mpi"
)

// reliableCounts is the lossy-control-plane version of the counter
// exchange shared by both drain strategies: every rank announces to
// every peer how many messages it sent that peer, and collects the
// count each peer announced toward it, surviving injected drops and
// delays of the first transmission with a classic timeout-and-resend
// protocol. It returns, per world rank, the number of messages that
// rank sent this one (this rank's own entry from sent).
//
// Wire format: an announcement is [epoch, count] (two int64 values).
// The first transmission goes out under TagDrainCounters — the one tag
// the fault injector is allowed to drop or delay. Acks (TagDrainAck,
// payload [epoch]) and retransmissions (TagDrainResend, same payload)
// are exempt from injected loss, which resolves the Two Generals
// problem: a bounded number of reliable resends always converges.
//
// A rank may return only when it (a) holds every peer's count and (b)
// has seen an ack for its own announcement from every peer. Condition
// (b) is what keeps a peer from deadlocking on a dropped first
// transmission: as long as some peer has not acked, this rank
// periodically wakes from a virtual-time sleep and resends its
// announcement to exactly the unacked peers. Acks for announcements
// this rank received are deposited before it returns, so a slow peer
// always finds them.
//
// Announcements and acks from an earlier drain round carry a smaller
// epoch and are discarded on receipt: the post-checkpoint barrier
// guarantees an epoch mismatch means a strictly older round, never a
// future one. Such leftovers exist precisely when a delayed original
// and a resend both arrived and only one copy was consumed.
func reliableCounts(env ckpt.DrainEnv, rel ckpt.ReliableCtl, sent []uint64) ([]uint64, error) {
	n, me := env.Size(), env.Rank()
	epoch := rel.CtlEpoch()
	timeout := rel.CtlResendTimeout()
	announcement := func(p int) []int64 { return []int64{epoch, int64(sent[p])} }

	ckpt.SetPhase(env, "reliable:announce")
	for p := 0; p < n; p++ {
		if p == me {
			continue
		}
		if err := env.CtlSend(p, ckpt.TagDrainCounters, announcement(p)); err != nil {
			return nil, fmt.Errorf("drain: announcing count to rank %d: %w", p, err)
		}
	}

	counts := make([]uint64, n)
	seen := make([]bool, n)
	counts[me], seen[me] = sent[me], true
	have := 1
	acked := make([]bool, n)
	acked[me] = true
	nAcked := 1

	// absorb drains every probeable announcement (first transmission or
	// resend) under tag, acking fresh-epoch ones and discarding stale
	// ones.
	absorb := func(tag int) (bool, error) {
		progressed := false
		for {
			ok, src, err := env.CtlIprobe(mpi.AnySource, tag)
			if err != nil {
				return progressed, err
			}
			if !ok {
				return progressed, nil
			}
			vals, err := env.CtlRecv(src, tag, 2)
			if err != nil {
				return progressed, err
			}
			if vals[0] != epoch {
				// A leftover from an older drain round (its sender has
				// long since passed the barrier): drop it unacked.
				continue
			}
			if !seen[src] {
				counts[src], seen[src] = uint64(vals[1]), true
				have++
				progressed = true
			}
			// Ack even duplicates: the sender may be resending because
			// our first ack chased a dropped transmission it re-sent.
			if err := env.CtlSend(src, ckpt.TagDrainAck, []int64{epoch}); err != nil {
				return progressed, err
			}
		}
	}

	for have < n || nAcked < n {
		ckpt.SetPhase(env, fmt.Sprintf("reliable:absorb counts=%d/%d acks=%d/%d", have, n, nAcked, n))
		progressed := false
		for _, tag := range []int{ckpt.TagDrainCounters, ckpt.TagDrainResend} {
			p, err := absorb(tag)
			if err != nil {
				return nil, err
			}
			progressed = progressed || p
		}
		for {
			ok, src, err := env.CtlIprobe(mpi.AnySource, ckpt.TagDrainAck)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			vals, err := env.CtlRecv(src, ckpt.TagDrainAck, 1)
			if err != nil {
				return nil, err
			}
			if vals[0] != epoch {
				continue
			}
			if !acked[src] {
				acked[src] = true
				nAcked++
				progressed = true
			}
		}
		if progressed || (have >= n && nAcked >= n) {
			continue
		}

		// Nothing probeable and the exchange is incomplete: either a
		// first transmission was dropped (ours or a peer's) or a peer
		// has not reached its cut. Sleep one resend timeout in virtual
		// time, then retransmit our announcement to every peer that has
		// not acked it. Resends are reliable, so each round strictly
		// grows the set of peers holding our count.
		ckpt.SetPhase(env, "reliable:timeout")
		if err := rel.CtlSleep(rel.CtlNow() + timeout); err != nil {
			return nil, fmt.Errorf("drain: resend timeout sleep: %w", err)
		}
		for p := 0; p < n; p++ {
			if acked[p] {
				continue
			}
			if err := env.CtlSend(p, ckpt.TagDrainResend, announcement(p)); err != nil {
				return nil, fmt.Errorf("drain: resending count to rank %d: %w", p, err)
			}
		}
	}
	return counts, nil
}

// reliableArmed reports whether env wants the timeout-and-resend
// exchange: it implements ReliableCtl and control faults are armed.
func reliableArmed(env ckpt.DrainEnv) (ckpt.ReliableCtl, bool) {
	rel, ok := env.(ckpt.ReliableCtl)
	if !ok || !rel.CtlFaultsArmed() {
		return nil, false
	}
	return rel, true
}
