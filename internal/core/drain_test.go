package mana

import (
	"strings"
	"testing"

	"manasim/internal/ckpt"
	"manasim/internal/ckptimg"
	"manasim/internal/ckptstore"
	"manasim/internal/impls"
)

// TestDrainStrategyParity checks the satellite guarantee of the
// checkpoint subsystem: every registered drain strategy produces
// restartable images for the same workload, on every simulated MPI
// implementation, with bitwise-identical results.
func TestDrainStrategyParity(t *testing.T) {
	for _, impl := range impls.Names() {
		plain, _, err := Run(implFactory(t, impl), testRanks, newRingApp(testSteps), -1)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range ckpt.DrainNames() {
			t.Run(impl+"/"+strat, func(t *testing.T) {
				cfg := implFactory(t, impl)
				cfg.DrainStrategy = strat
				cfg.ExitAtCheckpoint = true
				// Boundary 5: each rank's step-4 ring message is in
				// flight and must be drained.
				_, images, err := Run(cfg, testRanks, newRingApp(testSteps), 5)
				if err != nil {
					t.Fatalf("checkpoint under %s: %v", strat, err)
				}
				drained := 0
				for _, data := range images {
					img, err := ckptimg.Decode(data)
					if err != nil {
						t.Fatal(err)
					}
					drained += len(img.Drained)
				}
				if drained != testRanks {
					t.Fatalf("%s drained %d messages, want %d", strat, drained, testRanks)
				}
				rst, err := Restart(implFactory(t, impl), images, newRingApp(testSteps))
				if err != nil {
					t.Fatalf("restart from %s images: %v", strat, err)
				}
				sameChecksums(t, plain.Checksums, rst.Checksums, impl+"/"+strat)
			})
		}
	}
}

// TestDrainStrategiesAgreeOnImages verifies the cut itself is
// strategy-independent: the same workload checkpointed at the same
// boundary yields the same drained message multiset and counters under
// either strategy.
func TestDrainStrategiesAgreeOnImages(t *testing.T) {
	type cut struct {
		drained  int
		sentTo   uint64
		recvFrom uint64
	}
	var ref []cut
	var refStrat string
	for _, strat := range ckpt.DrainNames() {
		cfg := implFactory(t, "mpich")
		cfg.DrainStrategy = strat
		cfg.ExitAtCheckpoint = true
		_, images, err := Run(cfg, 4, newRingApp(8), 4)
		if err != nil {
			t.Fatal(err)
		}
		cuts := make([]cut, len(images))
		for i, data := range images {
			img, err := ckptimg.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			var c cut
			c.drained = len(img.Drained)
			for _, v := range img.SentTo {
				c.sentTo += v
			}
			for _, v := range img.RecvFrom {
				c.recvFrom += v
			}
			cuts[i] = c
		}
		if ref == nil {
			ref, refStrat = cuts, strat
			continue
		}
		for r := range cuts {
			if cuts[r] != ref[r] {
				t.Fatalf("rank %d cut differs: %s %+v vs %s %+v", r, strat, cuts[r], refStrat, ref[r])
			}
		}
	}
}

// TestCrossImplRestartUnderEachDrainStrategy runs the Section 9
// capability — checkpoint under one implementation, restart under
// another with uniform handles — for every drain strategy.
func TestCrossImplRestartUnderEachDrainStrategy(t *testing.T) {
	cases := []struct{ from, to string }{
		{"mpich", "openmpi"},
		{"openmpi", "mpich"},
		{"craympi", "openmpi"},
		{"mpich", "craympi"},
	}
	for _, strat := range ckpt.DrainNames() {
		for _, tc := range cases {
			t.Run(strat+"/"+tc.from+"_to_"+tc.to, func(t *testing.T) {
				ref := implFactory(t, tc.from)
				ref.UniformHandles = true
				plain, _, err := Run(ref, 4, newRingApp(8), -1)
				if err != nil {
					t.Fatal(err)
				}
				src := implFactory(t, tc.from)
				src.UniformHandles = true
				src.ExitAtCheckpoint = true
				src.DrainStrategy = strat
				_, images, err := Run(src, 4, newRingApp(8), 4)
				if err != nil {
					t.Fatal(err)
				}
				dst := implFactory(t, tc.to)
				rst, err := Restart(dst, images, newRingApp(8))
				if err != nil {
					t.Fatalf("cross restart %s->%s under %s: %v", tc.from, tc.to, strat, err)
				}
				sameChecksums(t, plain.Checksums, rst.Checksums, "cross-impl/"+strat)
			})
		}
	}
}

// TestRestartFromLegacyV2Image proves format compatibility end to end:
// a checkpoint re-encoded in the v2 monolithic format restores under
// the v3 codec and finishes with identical results.
func TestRestartFromLegacyV2Image(t *testing.T) {
	cfg := implFactory(t, "mpich")
	plain, _, err := Run(cfg, 4, newRingApp(8), -1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ExitAtCheckpoint = true
	_, images, err := Run(cfg, 4, newRingApp(8), 4)
	if err != nil {
		t.Fatal(err)
	}
	v2 := make([][]byte, len(images))
	for i, data := range images {
		img, err := ckptimg.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if v2[i], err = ckptimg.EncodeLegacy(img); err != nil {
			t.Fatal(err)
		}
	}
	rst, err := Restart(implFactory(t, "mpich"), v2, newRingApp(8))
	if err != nil {
		t.Fatalf("restart from v2 images: %v", err)
	}
	sameChecksums(t, plain.Checksums, rst.Checksums, "v2 restart")
}

// TestCompressedImagesRestore exercises the gzip tier of the v3 codec
// through a full checkpoint/restart cycle.
func TestCompressedImagesRestore(t *testing.T) {
	plain, _, err := Run(implFactory(t, "mpich"), 4, newRingApp(8), -1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := implFactory(t, "mpich")
	cfg.Store = ckptstore.MustOpen(4, ckptstore.Options{Compress: true})
	cfg.ExitAtCheckpoint = true
	_, images, err := Run(cfg, 4, newRingApp(8), 4)
	if err != nil {
		t.Fatal(err)
	}
	rst, err := Restart(implFactory(t, "mpich"), images, newRingApp(8))
	if err != nil {
		t.Fatalf("restart from compressed images: %v", err)
	}
	sameChecksums(t, plain.Checksums, rst.Checksums, "compressed restart")
}

// TestUnknownDrainStrategyRejected ensures a typo'd Config.DrainStrategy
// fails fast with the registered names in the message.
func TestUnknownDrainStrategyRejected(t *testing.T) {
	cfg := implFactory(t, "mpich")
	cfg.DrainStrategy = "definitely-not-registered"
	_, _, err := Run(cfg, 2, newRingApp(2), -1)
	if err == nil {
		t.Fatal("unknown drain strategy accepted")
	}
	if !strings.Contains(err.Error(), "twophase") {
		t.Fatalf("error does not list registered strategies: %v", err)
	}
}

// TestAsyncCheckpointUnderToposort runs the signal-style request under
// the collective-free strategy: agreement traffic and drain traffic
// share the internal communicator and must not interfere.
func TestAsyncCheckpointUnderToposort(t *testing.T) {
	cfg := implFactory(t, "mpich")
	cfg.DrainStrategy = "toposort"
	s, err := StartJob(cfg, 4, newRingApp(400))
	if err != nil {
		t.Fatal(err)
	}
	s.Co.RequestCheckpoint()
	st, err := s.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if st.CkptTaken != 1 {
		t.Fatalf("async request produced %d checkpoints", st.CkptTaken)
	}
	plain, err := RunNative(cfg, 4, newRingApp(400))
	if err != nil {
		t.Fatal(err)
	}
	sameChecksums(t, plain.Checksums, st.Checksums, "async toposort")
}
