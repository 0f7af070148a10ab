package mana

import (
	"time"

	"manasim/internal/mpi"
	"manasim/internal/vid"
)

// xlatDone charges the real, measured upper-half bookkeeping time
// (virtual-id translation, drain-buffer checks) of a wrapper call to
// the rank's virtual clock. Because this is measured — not modeled —
// the runtime difference between the new single-table design and the
// legacy string-keyed-map design (Figure 2's "up to 1.6%" improvement,
// Section 6.1) emerges from the actual cost of the two data structures.
//
// Measured time is inherently noisy at the nanosecond scale, and the
// noise propagates: send timestamps carry it to receivers, so no two
// runs produce bit-identical virtual times. Config.FixedXlatCost trades
// the measured signal for reproducibility — the cross-kernel
// conformance suite depends on it to compare Stats byte-for-byte.
//
// A sample is capped at maxXlatSample: the bookkeeping is a handful of
// table lookups, so a longer window means the rank's goroutine was
// descheduled (preempted, stopped for GC) between the two clock reads.
// Charging that host stall would bill one rank milliseconds of upper-half
// work, which message timestamps then spread to every peer.
func (r *Runtime) xlatDone(t0 time.Time) {
	if r.cfg.FixedXlatCost > 0 {
		r.clock.Advance(r.cfg.FixedXlatCost)
		return
	}
	r.clock.Advance(min(time.Since(t0), maxXlatSample))
}

// maxXlatSample bounds one measured bookkeeping sample. Genuine samples,
// the legacy string-keyed design's included, stay in the low
// microseconds.
const maxXlatSample = 20 * time.Microsecond

// This file contains the MANA stub (wrapper) functions of Figure 1: one
// per MPI call, each translating virtual ids to physical ids on the way
// into the lower half and back on the way out, while recording whatever
// the checkpoint protocol will need.

// lowerCall brackets a lower-half invocation with the two fs-register
// switches of the split-process architecture. Injected node crashes
// fire here, before the lower half is entered: a crashed rank never
// half-executes an MPI call. Checkpoint-internal lower-half calls
// (drain, delivery, the completion barrier) deliberately bypass
// lowerCall, so a crash can interrupt application communication but
// never a rank's own commit-critical section — matching a real system
// where the failed process simply stops and the store keeps whatever
// generations fully committed.
func (r *Runtime) lowerCall(fn func() error) error {
	r.wrapperCalls++
	if f := r.cfg.Faults; f != nil {
		if err := f.CheckCall(r.rank, r.clock.Now()); err != nil {
			return err
		}
	}
	r.bnd.Enter()
	err := fn()
	r.bnd.Leave()
	return err
}

// ---------------------------------------------------------------------
// point-to-point

// Send implements mpi.Proc.
func (r *Runtime) Send(buf []byte, count int, dt mpi.Handle, dest, tag int, comm mpi.Handle) error {
	t0 := time.Now()
	pdt, err := r.physDtype(dt)
	if err != nil {
		return err
	}
	pc, err := r.physComm(comm)
	if err != nil {
		return err
	}
	r.xlatDone(t0)
	if err := r.lowerCall(func() error {
		return r.lower.Send(buf, count, pdt, dest, tag, pc)
	}); err != nil {
		return err
	}
	if dest != mpi.ProcNull {
		w, err := r.worldOf(comm, dest)
		if err != nil {
			return err
		}
		r.sentTo[w]++
	}
	return nil
}

// Recv implements mpi.Proc: drained in-flight messages from the last
// checkpoint are delivered before the lower half is consulted, in their
// original order.
func (r *Runtime) Recv(buf []byte, count int, dt mpi.Handle, src, tag int, comm mpi.Handle) (mpi.Status, error) {
	if src == mpi.ProcNull {
		return mpi.Status{Source: mpi.ProcNull, Tag: mpi.AnyTag}, nil
	}
	t0 := time.Now()
	if st, ok, err := r.recvFromDrainBuffer(buf, count, dt, src, tag, comm); err != nil || ok {
		return st, err
	}
	pdt, err := r.physDtype(dt)
	if err != nil {
		return mpi.Status{}, err
	}
	pc, err := r.physComm(comm)
	if err != nil {
		return mpi.Status{}, err
	}
	r.xlatDone(t0)
	var st mpi.Status
	if err := r.lowerCall(func() error {
		var e error
		st, e = r.lower.Recv(buf, count, pdt, src, tag, pc)
		return e
	}); err != nil {
		return st, err
	}
	if err := r.countRecv(comm, st); err != nil {
		return st, err
	}
	return st, nil
}

// countRecv increments the per-world-rank receive counter from a
// completion status.
func (r *Runtime) countRecv(comm mpi.Handle, st mpi.Status) error {
	if st.Source == mpi.ProcNull || st.Source == mpi.Undefined {
		return nil
	}
	w, err := r.worldOf(comm, st.Source)
	if err != nil {
		return err
	}
	r.recvFrom[w]++
	return nil
}

// recvFromDrainBuffer serves a receive from the drained-message buffer.
// Drained payloads are packed bytes; delivery requires a contiguous
// receive datatype (MANA's documented constraint), which covers the
// halo-exchange and reduction patterns of real applications.
func (r *Runtime) recvFromDrainBuffer(buf []byte, count int, dt mpi.Handle, src, tag int, comm mpi.Handle) (mpi.Status, bool, error) {
	if len(r.drained) == 0 {
		return mpi.Status{}, false, nil
	}
	gg, err := r.ggidOf(comm)
	if err != nil {
		return mpi.Status{}, false, err
	}
	for i := range r.drained {
		d := &r.drained[i]
		if d.GGID != gg {
			continue
		}
		if src != mpi.AnySource && d.SrcCommRank != src {
			continue
		}
		if tag != mpi.AnyTag && d.Tag != tag {
			continue
		}
		// Check capacity against the receive type.
		pdt, err := r.physDtype(dt)
		if err != nil {
			return mpi.Status{}, false, err
		}
		var sz int
		if err := r.lowerCall(func() error {
			var e error
			sz, e = r.lower.TypeSize(pdt)
			return e
		}); err != nil {
			return mpi.Status{}, false, err
		}
		if len(d.Payload) > count*sz {
			return mpi.Status{}, false, mpi.Errorf(mpi.ErrTruncate,
				"mana: drained message of %d bytes truncated to %d-element buffer", len(d.Payload), count)
		}
		copy(buf, d.Payload)
		st := mpi.Status{Source: d.SrcCommRank, Tag: d.Tag, Bytes: len(d.Payload)}
		r.drained = append(r.drained[:i], r.drained[i+1:]...)
		// Not counted in recvFrom: the drain already counted it when it
		// pulled the message off the network.
		return st, true, nil
	}
	return mpi.Status{}, false, nil
}

// probeDrainBuffer finds a buffered drained message without removing it.
func (r *Runtime) probeDrainBuffer(src, tag int, comm mpi.Handle) (mpi.Status, bool, error) {
	if len(r.drained) == 0 {
		return mpi.Status{}, false, nil
	}
	gg, err := r.ggidOf(comm)
	if err != nil {
		return mpi.Status{}, false, err
	}
	for i := range r.drained {
		d := &r.drained[i]
		if d.GGID != gg {
			continue
		}
		if src != mpi.AnySource && d.SrcCommRank != src {
			continue
		}
		if tag != mpi.AnyTag && d.Tag != tag {
			continue
		}
		return mpi.Status{Source: d.SrcCommRank, Tag: d.Tag, Bytes: len(d.Payload)}, true, nil
	}
	return mpi.Status{}, false, nil
}

// Isend implements mpi.Proc. The lower half's eager protocol completes
// the send immediately; the wrapper still virtualizes the request handle.
func (r *Runtime) Isend(buf []byte, count int, dt mpi.Handle, dest, tag int, comm mpi.Handle) (mpi.Handle, error) {
	t0 := time.Now()
	pdt, err := r.physDtype(dt)
	if err != nil {
		return mpi.HandleNull, err
	}
	pc, err := r.physComm(comm)
	if err != nil {
		return mpi.HandleNull, err
	}
	r.xlatDone(t0)
	var preq mpi.Handle
	if err := r.lowerCall(func() error {
		var e error
		preq, e = r.lower.Isend(buf, count, pdt, dest, tag, pc)
		return e
	}); err != nil {
		return mpi.HandleNull, err
	}
	if dest != mpi.ProcNull {
		w, err := r.worldOf(comm, dest)
		if err != nil {
			return mpi.HandleNull, err
		}
		r.sentTo[w]++
	}
	return r.store.Add(mpi.KindRequest, preq,
		vid.Descriptor{Op: vid.DescRequest, Ints: []int{reqKindSend}}, vid.StrategyReplay)
}

// Request descriptor tags.
const (
	reqKindSend = iota
	reqKindRecv
)

// Irecv implements mpi.Proc. If a drained message already matches, the
// receive completes immediately from the buffer — otherwise a buffered
// older message could be overtaken by a newer network message.
func (r *Runtime) Irecv(buf []byte, count int, dt mpi.Handle, src, tag int, comm mpi.Handle) (mpi.Handle, error) {
	if st, ok, err := r.recvFromDrainBuffer(buf, count, dt, src, tag, comm); err != nil {
		return mpi.HandleNull, err
	} else if ok {
		virt, err := r.store.Add(mpi.KindRequest, mpi.HandleNull,
			vid.Descriptor{Op: vid.DescRequest, Ints: []int{reqKindRecv}}, vid.StrategyReplay)
		if err != nil {
			return mpi.HandleNull, err
		}
		r.reqResults[virt] = st
		return virt, nil
	}
	pdt, err := r.physDtype(dt)
	if err != nil {
		return mpi.HandleNull, err
	}
	pc, err := r.physComm(comm)
	if err != nil {
		return mpi.HandleNull, err
	}
	var preq mpi.Handle
	if err := r.lowerCall(func() error {
		var e error
		preq, e = r.lower.Irecv(buf, count, pdt, src, tag, pc)
		return e
	}); err != nil {
		return mpi.HandleNull, err
	}
	virt, err := r.store.Add(mpi.KindRequest, preq,
		vid.Descriptor{Op: vid.DescRequest, Ints: []int{reqKindRecv}}, vid.StrategyReplay)
	if err != nil {
		return mpi.HandleNull, err
	}
	r.reqBufs[virt] = pendingRecv{buf: buf, count: count, dt: dt, comm: comm, src: src, tag: tag}
	return virt, nil
}

// Wait implements mpi.Proc.
func (r *Runtime) Wait(req mpi.Handle) (mpi.Status, error) {
	t0 := time.Now()
	if st, ok := r.reqResults[req]; ok {
		delete(r.reqResults, req)
		_ = r.store.Drop(mpi.KindRequest, req)
		return st, nil
	}
	desc, err := r.store.DescOf(mpi.KindRequest, req)
	if err != nil {
		return mpi.Status{}, err
	}
	preq, err := r.store.Phys(mpi.KindRequest, req)
	if err != nil {
		return mpi.Status{}, err
	}
	r.xlatDone(t0)
	var st mpi.Status
	if err := r.lowerCall(func() error {
		var e error
		st, e = r.lower.Wait(preq)
		return e
	}); err != nil {
		return st, err
	}
	if len(desc.Ints) > 0 && desc.Ints[0] == reqKindRecv {
		if p, ok := r.reqBufs[req]; ok {
			if err := r.countRecv(p.comm, st); err != nil {
				return st, err
			}
			delete(r.reqBufs, req)
		}
	}
	_ = r.store.Drop(mpi.KindRequest, req)
	return st, nil
}

// Test implements mpi.Proc.
func (r *Runtime) Test(req mpi.Handle) (bool, mpi.Status, error) {
	if st, ok := r.reqResults[req]; ok {
		delete(r.reqResults, req)
		_ = r.store.Drop(mpi.KindRequest, req)
		return true, st, nil
	}
	desc, err := r.store.DescOf(mpi.KindRequest, req)
	if err != nil {
		return false, mpi.Status{}, err
	}
	preq, err := r.store.Phys(mpi.KindRequest, req)
	if err != nil {
		return false, mpi.Status{}, err
	}
	var done bool
	var st mpi.Status
	if err := r.lowerCall(func() error {
		var e error
		done, st, e = r.lower.Test(preq)
		return e
	}); err != nil {
		return done, st, err
	}
	if !done {
		return false, st, nil
	}
	if len(desc.Ints) > 0 && desc.Ints[0] == reqKindRecv {
		if p, ok := r.reqBufs[req]; ok {
			if err := r.countRecv(p.comm, st); err != nil {
				return true, st, err
			}
			delete(r.reqBufs, req)
		}
	}
	_ = r.store.Drop(mpi.KindRequest, req)
	return true, st, nil
}

// Iprobe implements mpi.Proc, consulting the drain buffer first.
func (r *Runtime) Iprobe(src, tag int, comm mpi.Handle) (bool, mpi.Status, error) {
	t0 := time.Now()
	if st, ok, err := r.probeDrainBuffer(src, tag, comm); err != nil || ok {
		return ok, st, err
	}
	pc, err := r.physComm(comm)
	if err != nil {
		return false, mpi.Status{}, err
	}
	r.xlatDone(t0)
	var ok bool
	var st mpi.Status
	err = r.lowerCall(func() error {
		var e error
		ok, st, e = r.lower.Iprobe(src, tag, pc)
		return e
	})
	return ok, st, err
}

// Probe implements mpi.Proc.
func (r *Runtime) Probe(src, tag int, comm mpi.Handle) (mpi.Status, error) {
	if st, ok, err := r.probeDrainBuffer(src, tag, comm); err != nil || ok {
		return st, err
	}
	pc, err := r.physComm(comm)
	if err != nil {
		return mpi.Status{}, err
	}
	var st mpi.Status
	err = r.lowerCall(func() error {
		var e error
		st, e = r.lower.Probe(src, tag, pc)
		return e
	})
	return st, err
}

// ---------------------------------------------------------------------
// collectives (translation only; collective traffic cannot be in flight
// at a checkpoint boundary, so no recording is needed)

// Barrier implements mpi.Proc.
func (r *Runtime) Barrier(comm mpi.Handle) error {
	pc, err := r.physComm(comm)
	if err != nil {
		return err
	}
	return r.lowerCall(func() error { return r.lower.Barrier(pc) })
}

// Bcast implements mpi.Proc.
func (r *Runtime) Bcast(buf []byte, count int, dt mpi.Handle, root int, comm mpi.Handle) error {
	pdt, err := r.physDtype(dt)
	if err != nil {
		return err
	}
	pc, err := r.physComm(comm)
	if err != nil {
		return err
	}
	return r.lowerCall(func() error { return r.lower.Bcast(buf, count, pdt, root, pc) })
}

// Reduce implements mpi.Proc.
func (r *Runtime) Reduce(send, recv []byte, count int, dt, op mpi.Handle, root int, comm mpi.Handle) error {
	pdt, err := r.physDtype(dt)
	if err != nil {
		return err
	}
	pop, err := r.physOp(op)
	if err != nil {
		return err
	}
	pc, err := r.physComm(comm)
	if err != nil {
		return err
	}
	return r.lowerCall(func() error { return r.lower.Reduce(send, recv, count, pdt, pop, root, pc) })
}

// Allreduce implements mpi.Proc.
func (r *Runtime) Allreduce(send, recv []byte, count int, dt, op mpi.Handle, comm mpi.Handle) error {
	t0 := time.Now()
	pdt, err := r.physDtype(dt)
	if err != nil {
		return err
	}
	pop, err := r.physOp(op)
	if err != nil {
		return err
	}
	pc, err := r.physComm(comm)
	if err != nil {
		return err
	}
	r.xlatDone(t0)
	return r.lowerCall(func() error { return r.lower.Allreduce(send, recv, count, pdt, pop, pc) })
}

// Alltoall implements mpi.Proc.
func (r *Runtime) Alltoall(send []byte, scount int, sdt mpi.Handle, recv []byte, rcount int, rdt mpi.Handle, comm mpi.Handle) error {
	psdt, err := r.physDtype(sdt)
	if err != nil {
		return err
	}
	prdt, err := r.physDtype(rdt)
	if err != nil {
		return err
	}
	pc, err := r.physComm(comm)
	if err != nil {
		return err
	}
	return r.lowerCall(func() error {
		return r.lower.Alltoall(send, scount, psdt, recv, rcount, prdt, pc)
	})
}

// Allgather implements mpi.Proc.
func (r *Runtime) Allgather(send []byte, scount int, sdt mpi.Handle, recv []byte, rcount int, rdt mpi.Handle, comm mpi.Handle) error {
	psdt, err := r.physDtype(sdt)
	if err != nil {
		return err
	}
	prdt, err := r.physDtype(rdt)
	if err != nil {
		return err
	}
	pc, err := r.physComm(comm)
	if err != nil {
		return err
	}
	return r.lowerCall(func() error {
		return r.lower.Allgather(send, scount, psdt, recv, rcount, prdt, pc)
	})
}

// Gather implements mpi.Proc.
func (r *Runtime) Gather(send []byte, scount int, sdt mpi.Handle, recv []byte, rcount int, rdt mpi.Handle, root int, comm mpi.Handle) error {
	psdt, err := r.physDtype(sdt)
	if err != nil {
		return err
	}
	prdt, err := r.physDtype(rdt)
	if err != nil {
		return err
	}
	pc, err := r.physComm(comm)
	if err != nil {
		return err
	}
	return r.lowerCall(func() error {
		return r.lower.Gather(send, scount, psdt, recv, rcount, prdt, root, pc)
	})
}

// Scatter implements mpi.Proc.
func (r *Runtime) Scatter(send []byte, scount int, sdt mpi.Handle, recv []byte, rcount int, rdt mpi.Handle, root int, comm mpi.Handle) error {
	psdt, err := r.physDtype(sdt)
	if err != nil {
		return err
	}
	prdt, err := r.physDtype(rdt)
	if err != nil {
		return err
	}
	pc, err := r.physComm(comm)
	if err != nil {
		return err
	}
	return r.lowerCall(func() error {
		return r.lower.Scatter(send, scount, psdt, recv, rcount, prdt, root, pc)
	})
}
