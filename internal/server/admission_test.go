package server

import (
	"context"
	"testing"
	"time"
)

// TestAdmissionFreeSlotBypassesQueue: a campaign that finds a free slot is
// admitted without counting against the queue depth, so it is not shed
// while another arrival holds the last queue place.
func TestAdmissionFreeSlotBypassesQueue(t *testing.T) {
	a := newAdmission(2, 1, 10, time.Second, nil)
	a.queued.Store(1) // the one queue place is taken
	release, err := a.acquire(context.Background(), "t1")
	if err != nil {
		t.Fatalf("acquire with a free slot: %v", err)
	}
	if got := a.queued.Load(); got != 1 {
		t.Fatalf("queued = %d after a free-slot admission, want 1", got)
	}
	release()
}
