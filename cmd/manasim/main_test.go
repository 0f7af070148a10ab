package main

import (
	"bytes"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestCmdRunStoreFlags drives `manasim run` through checkpoint, stop
// and restart on the event kernel for each shape of the run's one
// checkpoint store.
func TestCmdRunStoreFlags(t *testing.T) {
	base := []string{"-app", "comd", "-impl", "mpich", "-mana", "-ranks", "4", "-steps", "4",
		"-ckpt", "2", "-restart-impl", "mpich", "-kernel", "event"}
	retried := regexp.MustCompile(`\((\d+) retried`)
	dir := t.TempDir()
	cases := []struct {
		name  string
		flags []string
		want  []string
		check func(t *testing.T, out string)
	}{
		{name: "plain", want: []string{"store[mem]: generation 0 at step 2: base"}},
		{
			name:  "delta-dedup-fastlz",
			flags: []string{"-delta", "-dedup", "-compress", "-compress-tier", "fast-lz"},
			want:  []string{"store[mem]: generation 0", "dedup: "},
		},
		{
			name:  "tier-front-cap",
			flags: []string{"-backend", "tier", "-front-cap", "64"},
			want:  []string{"store[tier]: generation 0"},
		},
		{
			name:  "ckpt-dir",
			flags: []string{"-ckpt-dir", dir},
			want:  []string{"store[fs]: generation 0"},
			check: func(t *testing.T, out string) {
				ents, err := os.ReadDir(dir)
				if err != nil || len(ents) == 0 {
					t.Fatalf("-ckpt-dir left nothing on disk (%d entries, err %v)", len(ents), err)
				}
			},
		},
		{
			name:  "faults-delta",
			flags: []string{"-faults", "-delta"},
			want:  []string{"faults[seed 42]"},
			check: func(t *testing.T, out string) {
				m := retried.FindStringSubmatch(out)
				if m == nil {
					t.Fatalf("no store retry count in output")
				}
				if n, _ := strconv.Atoi(m[1]); n == 0 {
					t.Fatalf("-faults with an explicit -delta store retried no store op: injected store faults never fired")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := cmdRun(append(append([]string(nil), base...), tc.flags...), &out); err != nil {
				t.Fatalf("cmdRun: %v\n%s", err, out.String())
			}
			got := out.String()
			for _, w := range append(tc.want, "checkpoint: 4 rank images at step 2", "restart MANA/mpich") {
				if !strings.Contains(got, w) {
					t.Fatalf("output lacks %q:\n%s", w, got)
				}
			}
			if tc.check != nil {
				tc.check(t, got)
			}
		})
	}
}
