package tilecache

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"geosel/internal/engine"
	"geosel/internal/geo"
	"geosel/internal/geodata"
)

// gatedView blocks every region query until release is closed, so a
// test holds a tile fill in flight for as long as it needs; entered is
// closed when the first query arrives.
type gatedView struct {
	geodata.View
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func newGatedView(v geodata.View) *gatedView {
	return &gatedView{View: v, entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedView) Region(r geo.Rect) []int {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	return g.View.Region(r)
}

// fetchTile requests tile (1, 0, 0) through the singleflight and sends
// the outcome on the returned channel.
func fetchTile(ctx context.Context, c *Cache, view geodata.View) <-chan error {
	out := make(chan error, 1)
	go func() {
		payload, _, err := c.TilePayload(ctx, view, 0, 1, 0, 0, 0.01, 5, nil)
		if err == nil {
			_, err = DecodeTile(payload)
		}
		out <- err
	}()
	return out
}

// TestCoalescedWaiterHonorsOwnDeadline: a request coalesced behind a
// slow fill returns its own deadline error when that deadline passes,
// instead of blocking until the leader finishes.
func TestCoalescedWaiterHonorsOwnDeadline(t *testing.T) {
	store := testStore(t, 500, 41)
	c := newTestCache(t, engine.Config{})
	gate := newGatedView(store)
	release := sync.OnceFunc(func() { close(gate.release) })
	leader := fetchTile(context.Background(), c, gate)
	<-gate.entered

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	begin := time.Now()
	waiter := fetchTile(ctx, c, store)
	select {
	case err := <-waiter:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("waiter err = %v, want context.DeadlineExceeded", err)
		}
		if d := time.Since(begin); d > time.Second {
			t.Errorf("waiter with a 10 ms deadline returned after %v", d)
		}
	case <-time.After(5 * time.Second):
		t.Error("waiter with a 10 ms deadline still blocked behind the leader after 5 s")
		release()
		<-waiter
	}
	release()
	if err := <-leader; err != nil {
		t.Fatalf("leader: %v", err)
	}
}

// TestCoalescedWaiterRetriesAfterLeaderCancel: when the fill's leader
// is cancelled by its own client, a waiter whose context is still live
// takes over the fill instead of inheriting the leader's error.
func TestCoalescedWaiterRetriesAfterLeaderCancel(t *testing.T) {
	store := testStore(t, 500, 42)
	c := newTestCache(t, engine.Config{})
	gate := newGatedView(store)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leader := fetchTile(leaderCtx, c, gate)
	<-gate.entered

	waiter := fetchTile(context.Background(), c, store)
	// The waiter counts itself as coalesced before it parks on the
	// flight.
	for deadline := time.Now().Add(5 * time.Second); c.Stats().Coalesced == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(gate.release)
			t.Fatalf("waiter never joined the in-flight fill (leader %v, waiter %v)", <-leader, <-waiter)
		}
	}
	cancelLeader()
	close(gate.release)
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	if err := <-waiter; err != nil {
		t.Fatalf("live waiter inherited the cancelled leader's failure: %v", err)
	}
	if st := c.Stats(); st.TileMisses != 1 {
		t.Errorf("tile misses = %d, want 1 (the waiter's own fill)", st.TileMisses)
	}
}
