package mana

import (
	"testing"
	"time"

	"manasim/internal/cluster"
)

// TestCheckpointRequestBeforeWaitIsNeverLate pins the launch contract:
// ranks start on the first Wait, so a checkpoint requested any time
// between StartJob and Wait is taken at its step by every rank. Were the
// ranks already running, some would pass the step before the request
// lands — no checkpoint, or a drain that never completes.
func TestCheckpointRequestBeforeWaitIsNeverLate(t *testing.T) {
	const ranks, steps = 4, 40
	for _, kern := range []cluster.KernelKind{cluster.KernelGoroutine, cluster.KernelEvent} {
		t.Run(kern.String(), func(t *testing.T) {
			cfg := implFactory(t, "mpich")
			cfg.Kernel = kern
			plain, _, err := Run(cfg, ranks, newRingApp(steps), -1)
			if err != nil {
				t.Fatal(err)
			}
			s, err := StartJob(cfg, ranks, newRingApp(steps))
			if err != nil {
				t.Fatal(err)
			}
			time.Sleep(50 * time.Millisecond)
			s.Co.RequestCheckpointAtStep(1)
			type result struct {
				st  Stats
				err error
			}
			done := make(chan result, 1)
			go func() {
				st, err := s.Wait()
				done <- result{st, err}
			}()
			select {
			case r := <-done:
				if r.err != nil {
					t.Fatal(r.err)
				}
				if r.st.CkptTaken != 1 {
					t.Fatalf("checkpoint requested before Wait: %d taken, want 1", r.st.CkptTaken)
				}
				sameChecksums(t, plain.Checksums, r.st.Checksums, "late request")
			case <-time.After(20 * time.Second):
				t.Fatal("job with a checkpoint requested before Wait did not finish within 20s")
			}
		})
	}
}
