package worker

import (
	"testing"
	"time"
)

// TestBackoff pins the retry schedule: the first delay is base, each
// retry doubles it, the cap holds however many retries follow, and every
// delay is jittered — it varies, within [0.75, 1.25) of its nominal
// value.
func TestBackoff(t *testing.T) {
	const base, ceil = 100 * time.Millisecond, 1 * time.Second
	cases := []struct {
		name    string
		n       int
		nominal time.Duration
	}{
		{"first", 0, 100 * time.Millisecond},
		{"doubled", 1, 200 * time.Millisecond},
		{"doubled twice", 2, 400 * time.Millisecond},
		{"doubled thrice", 3, 800 * time.Millisecond},
		{"capped", 4, time.Second},
		{"stays capped", 40, time.Second},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			lo, hi := c.nominal*3/4, c.nominal*5/4
			seen := map[time.Duration]bool{}
			for range 200 {
				d := Backoff(c.n, base, ceil)
				if d < lo || d >= hi {
					t.Fatalf("Backoff(%d) = %v, want in [%v, %v)", c.n, d, lo, hi)
				}
				seen[d] = true
			}
			if len(seen) < 2 {
				t.Errorf("Backoff(%d) returned one value 200 times: no jitter", c.n)
			}
		})
	}
}
