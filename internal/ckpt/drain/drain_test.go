package drain

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"manasim/internal/ckpt"
	"manasim/internal/mpi"
)

func TestBuiltinsRegistered(t *testing.T) {
	names := ckpt.DrainNames()
	want := []string{"toposort", "twophase"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("registered %v, want %v", names, want)
	}
	for _, n := range names {
		s, err := ckpt.NewDrain(n)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != n {
			t.Fatalf("strategy %q reports name %q", n, s.Name())
		}
	}
	// The empty name resolves to the default two-phase protocol.
	s, err := ckpt.NewDrain("")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != ckpt.DefaultDrain {
		t.Fatalf("default strategy %q", s.Name())
	}
}

// ctlMsg is one control message seen by scriptEnv: queued from a peer,
// or recorded on its way to one.
type ctlMsg struct {
	peer, tag int
	vals      []int64
}

// scriptEnv is a scripted single-rank DrainEnv. The peers' control
// messages and the application messages in flight toward this rank are
// queued before the drain starts; every control send is recorded, and
// so is the sender of every pulled message, in pull order.
type scriptEnv struct {
	me       int
	sentTo   []uint64
	recvFrom []uint64
	ctl      []ctlMsg
	inflight []int // per world rank: messages still probeable from it
	sends    []ctlMsg
	pulled   []int
}

func (e *scriptEnv) find(src, tag int) int {
	for i, m := range e.ctl {
		if m.tag == tag && (src == mpi.AnySource || m.peer == src) {
			return i
		}
	}
	return -1
}

func (e *scriptEnv) CtlSend(dest, tag int, vals []int64) error {
	e.sends = append(e.sends, ctlMsg{dest, tag, append([]int64(nil), vals...)})
	return nil
}

func (e *scriptEnv) CtlIprobe(src, tag int) (bool, int, error) {
	if i := e.find(src, tag); i >= 0 {
		return true, e.ctl[i].peer, nil
	}
	return false, 0, nil
}

func (e *scriptEnv) CtlWait(src, tag int) error {
	if e.find(src, tag) < 0 {
		return fmt.Errorf("wait on tag %d would block forever", tag)
	}
	return nil
}

func (e *scriptEnv) CtlRecv(src, tag, count int) ([]int64, error) {
	i := e.find(src, tag)
	if i < 0 {
		return nil, fmt.Errorf("no message from %d under tag %d", src, tag)
	}
	m := e.ctl[i]
	e.ctl = append(e.ctl[:i], e.ctl[i+1:]...)
	if len(m.vals) > count {
		return nil, fmt.Errorf("%d values truncated to %d", len(m.vals), count)
	}
	return m.vals, nil
}

func (e *scriptEnv) Rank() int          { return e.me }
func (e *scriptEnv) Size() int          { return len(e.sentTo) }
func (e *scriptEnv) SentTo() []uint64   { return e.sentTo }
func (e *scriptEnv) RecvFrom() []uint64 { return e.recvFrom }

func (e *scriptEnv) ExchangeAll([]uint64) ([]uint64, error) {
	return nil, fmt.Errorf("scripted env has no collective")
}

func (e *scriptEnv) Comms() ([]ckpt.DrainComm, error) {
	world := make([]int, e.Size())
	for i := range world {
		world[i] = i
	}
	return []ckpt.DrainComm{{World: world}}, nil
}

func (e *scriptEnv) Probe(_ ckpt.DrainComm, src, _ int) (bool, mpi.Status, error) {
	for w, k := range e.inflight {
		if k > 0 && (src == mpi.AnySource || src == w) {
			return true, mpi.Status{Source: w, Bytes: 8}, nil
		}
	}
	return false, mpi.Status{}, nil
}

func (e *scriptEnv) Pull(_ ckpt.DrainComm, st mpi.Status) (int, error) {
	e.inflight[st.Source]--
	e.recvFrom[st.Source]++
	e.pulled = append(e.pulled, st.Source)
	return st.Source, nil
}

// lossyEnv arms the reliable exchange on a scriptEnv.
type lossyEnv struct{ *scriptEnv }

const scriptEpoch = 7

func (lossyEnv) CtlFaultsArmed() bool            { return true }
func (lossyEnv) CtlNow() time.Duration           { return 0 }
func (lossyEnv) CtlEpoch() int64                 { return scriptEpoch }
func (lossyEnv) CtlResendTimeout() time.Duration { return time.Millisecond }
func (lossyEnv) CtlSleep(time.Duration) error    { return fmt.Errorf("unexpected resend timeout") }

// newScript builds rank 1 of 4. It sent 2, 1, 0 and 5 messages to
// ranks 0..3 and had received 1, 0, 2 and 0 before the drain. Peers 0,
// 2 and 3 announce 4, 2 and 3 messages toward it, so 3, 0 and 3 are in
// flight, plus the one it sent itself.
func newScript() *scriptEnv {
	return &scriptEnv{
		me:       1,
		sentTo:   []uint64{2, 1, 0, 5},
		recvFrom: []uint64{1, 0, 2, 0},
		inflight: []int{3, 1, 0, 3},
	}
}

// announced is what newScript's peers announce toward rank 1.
var announced = map[int]int64{0: 4, 2: 2, 3: 3}

// TestAnnouncementCarriesOneCount drives each strategy's counter
// exchange on the scripted rank: every announcement carries only the
// count addressed to its receiver ([count] lossless, [epoch, count]
// under armed control faults), and the messages pulled per peer are
// exactly the announced count less the receives before the drain.
func TestAnnouncementCarriesOneCount(t *testing.T) {
	cases := []struct {
		strat string
		lossy bool
	}{{"toposort", false}, {"toposort", true}, {"twophase", true}}
	for _, tc := range cases {
		name := tc.strat
		if tc.lossy {
			name += "/reliable"
		}
		t.Run(name, func(t *testing.T) {
			e := newScript()
			var env ckpt.DrainEnv = e
			if tc.lossy {
				env = lossyEnv{e}
				// A stale announcement from an older round comes first
				// and must be discarded.
				e.ctl = append(e.ctl, ctlMsg{3, ckpt.TagDrainCounters, []int64{scriptEpoch - 1, 99}})
			}
			for _, p := range []int{3, 0, 2} {
				vals := []int64{announced[p]}
				if tc.lossy {
					vals = []int64{scriptEpoch, announced[p]}
					e.ctl = append(e.ctl, ctlMsg{p, ckpt.TagDrainAck, []int64{scriptEpoch}})
				}
				e.ctl = append(e.ctl, ctlMsg{p, ckpt.TagDrainCounters, vals})
			}
			s, err := ckpt.NewDrain(tc.strat)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Drain(env); err != nil {
				t.Fatal(err)
			}

			var dests []int
			for _, m := range e.sends {
				if m.tag != ckpt.TagDrainCounters {
					continue
				}
				want := []int64{int64(e.sentTo[m.peer])}
				if tc.lossy {
					want = []int64{scriptEpoch, int64(e.sentTo[m.peer])}
				}
				if !reflect.DeepEqual(m.vals, want) {
					t.Errorf("announcement to rank %d carries %v, want %v", m.peer, m.vals, want)
				}
				dests = append(dests, m.peer)
			}
			if !reflect.DeepEqual(dests, []int{0, 2, 3}) {
				t.Errorf("announced to %v, want [0 2 3]", dests)
			}

			got := make([]int, 4)
			for _, w := range e.pulled {
				got[w]++
			}
			if want := []int{3, 1, 0, 3}; !reflect.DeepEqual(got, want) {
				t.Errorf("pulled per peer %v, want %v", got, want)
			}
			for p, c := range announced {
				if int64(e.recvFrom[p]) != c {
					t.Errorf("receive counter from rank %d is %d after the drain, announced %d", p, e.recvFrom[p], c)
				}
			}
			if tc.strat == "toposort" {
				// Every announcement was queued before the drain, so one
				// pass pulls them all, in ascending world-rank order.
				if want := []int{0, 0, 0, 1, 3, 3, 3}; !reflect.DeepEqual(e.pulled, want) {
					t.Errorf("pull order %v, want %v", e.pulled, want)
				}
			}
		})
	}
}

// TestTopoSortRejectsBadAnnouncements: a second announcement from the
// same peer, or a count below the receives already recorded from it, is
// a protocol error, not something to drain around.
func TestTopoSortRejectsBadAnnouncements(t *testing.T) {
	cases := []struct {
		name string
		ctl  []ctlMsg
		want string
	}{
		{"duplicate", []ctlMsg{
			{2, ckpt.TagDrainCounters, []int64{2}},
			{2, ckpt.TagDrainCounters, []int64{2}},
		}, "duplicate counter announcement from rank 2"},
		{"underflow", []ctlMsg{
			{0, ckpt.TagDrainCounters, []int64{0}},
		}, "counter underflow from rank 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newScript()
			e.ctl = tc.ctl
			err := (&TopoSort{}).Drain(e)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("drain error %v, want %q", err, tc.want)
			}
		})
	}
}
