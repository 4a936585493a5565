package sim

import (
	"testing"
	"time"
)

// TestWallClockAfterAsync checks the Clock contract on the wall clock:
// zero, negative and positive delays all run fn after After returns, and
// Pending counts each callback until it has finished.
func TestWallClockAfterAsync(t *testing.T) {
	c := NewWallClock()
	for _, d := range []time.Duration{0, -time.Second, 100 * time.Microsecond} {
		returned := make(chan struct{})
		ran := make(chan bool, 1)
		release := make(chan struct{})
		c.After(d, func() {
			// Run inside After, fn would wait out the timeout here.
			select {
			case <-returned:
				ran <- true
				<-release
			case <-time.After(2 * time.Second):
				ran <- false
			}
		})
		if got := c.Pending(); got != 1 {
			t.Fatalf("d=%v: Pending()=%d right after After, want 1", d, got)
		}
		close(returned)
		if !<-ran {
			t.Fatalf("d=%v: fn ran inside After", d)
		}
		if got := c.Pending(); got != 1 {
			t.Fatalf("d=%v: Pending()=%d while fn runs, want 1", d, got)
		}
		close(release)
		deadline := time.Now().Add(5 * time.Second)
		for c.Pending() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("d=%v: Pending() stuck at %d after fn returned", d, c.Pending())
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	c.After(0, nil) // a nil fn is ignored
	if got := c.Pending(); got != 0 {
		t.Fatalf("Pending()=%d after After(0, nil), want 0", got)
	}
}
