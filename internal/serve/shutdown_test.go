package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"

	"edgecache/internal/online"
)

// feedClock is a Clock whose single ticker fires exactly the timestamps
// the test feeds — the deterministic way to exercise the due-accounting
// in the tick loop (MockClock.Advance always delivers periods one by
// one, so it can never produce a late, coalesced tick).
type feedClock struct{ ch chan time.Time }

func newFeedClock() *feedClock { return &feedClock{ch: make(chan time.Time)} }

func (c *feedClock) Now() time.Time              { return time.Time{} }
func (c *feedClock) Ticker(time.Duration) Ticker { return c }
func (c *feedClock) C() <-chan time.Time         { return c.ch }
func (c *feedClock) Stop()                       {}
func (c *feedClock) feed(t *testing.T, at time.Time) {
	t.Helper()
	select {
	case c.ch <- at:
	case <-time.After(5 * time.Second):
		t.Fatal("tick loop stopped consuming ticks")
	}
}

func waitSlot(t *testing.T, c *Controller, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().Slot < want {
		if time.Now().After(deadline) {
			t.Fatalf("slot stuck at %d waiting for %d", c.Stats().Slot, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCatchUpFastForward checks degraded-mode due accounting: a tick
// arriving 4 periods late closes CatchUpBound slots back to back and
// counts the remainder as missed.
func TestCatchUpFastForward(t *testing.T) {
	base := testInstance(t)
	c, err := New(context.Background(), base, Config{Online: online.RHC(4), EstimatorFloor: -1})
	if err != nil {
		t.Fatal(err)
	}
	clock := newFeedClock()
	const period = time.Second
	srv, err := NewServer(ServerConfig{
		Controller: c, Clock: clock, SlotDuration: period,
		CatchUp: CatchUpFastForward, CatchUpBound: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("localhost:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()

	t0 := time.Unix(1000, 0)
	clock.feed(t, t0.Add(period)) // on time: anchors the loop, closes slot 0
	waitSlot(t, c, 1)

	missed0 := mTicksMissed.Value()
	// 4 periods late: 4 slots due, bound 2 → slots 1 and 2 close, 2 missed.
	clock.feed(t, t0.Add(5*period))
	waitSlot(t, c, 3)
	if got := mTicksMissed.Value() - missed0; got != 2 {
		t.Fatalf("fast-forward counted %d missed ticks, want 2", got)
	}
	// A stale duplicate of an already-handled period is ignored.
	clock.feed(t, t0.Add(5*period))
	clock.feed(t, t0.Add(6*period))
	waitSlot(t, c, 4)
	if got := c.Stats().Slot; got != 4 {
		t.Fatalf("slot %d after stale duplicate, want 4", got)
	}
}

// TestCatchUpSkip checks the default policy: one close per tick event no
// matter how late, the backlog logged as missed.
func TestCatchUpSkip(t *testing.T) {
	base := testInstance(t)
	c, err := New(context.Background(), base, Config{Online: online.RHC(4), EstimatorFloor: -1})
	if err != nil {
		t.Fatal(err)
	}
	clock := newFeedClock()
	const period = time.Second
	srv, err := NewServer(ServerConfig{Controller: c, Clock: clock, SlotDuration: period})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("localhost:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()

	t0 := time.Unix(2000, 0)
	clock.feed(t, t0.Add(period))
	waitSlot(t, c, 1)
	missed0 := mTicksMissed.Value()
	clock.feed(t, t0.Add(4*period)) // 3 due: close 1, miss 2
	waitSlot(t, c, 2)
	if got := c.Stats().Slot; got != 2 {
		t.Fatalf("skip policy closed to slot %d, want 2", got)
	}
	if got := mTicksMissed.Value() - missed0; got != 2 {
		t.Fatalf("skip policy counted %d missed ticks, want 2", got)
	}
}

// TestShutdownDuringRecovery covers the in-flight-recovery case: the
// server comes up with Boot still running, reports not-ready, and a
// Shutdown issued mid-recovery cancels the boot context and returns
// cleanly. Shutdown and Close are idempotent.
func TestShutdownDuringRecovery(t *testing.T) {
	booting := make(chan struct{})
	srv, err := NewServer(ServerConfig{
		Boot: func(ctx context.Context) (*Controller, error) {
			close(booting)
			<-ctx.Done() // a recovery that never finishes on its own
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("localhost:0"); err != nil {
		t.Fatal(err)
	}
	<-booting

	url := fmt.Sprintf("http://%s", srv.Addr())
	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(url + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/v1/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during recovery: %d, want 503", code)
	}
	if code := get("/v1/healthz"); code != http.StatusOK {
		t.Fatalf("healthz during recovery: %d, want 200 (liveness)", code)
	}
	if code := get("/v1/stats"); code != http.StatusServiceUnavailable {
		t.Fatalf("stats during recovery: %d, want 503", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown during recovery: %v", err)
	}
	if err := srv.BootErr(); !errors.Is(err, context.Canceled) {
		t.Fatalf("boot error %v, want context.Canceled", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestBootServesAfterRecovery covers the happy Boot path: 503 while
// recovering, ready once the controller lands, and Shutdown closes the
// boot-owned controller.
func TestBootServesAfterRecovery(t *testing.T) {
	base := testInstance(t)
	release := make(chan struct{})
	var booted *Controller
	srv, err := NewServer(ServerConfig{
		Boot: func(ctx context.Context) (*Controller, error) {
			<-release
			c, err := New(ctx, base, Config{Online: online.RHC(4), EstimatorFloor: -1})
			booted = c
			return c, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("localhost:0"); err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("http://%s", srv.Addr())
	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(url + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/v1/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before recovery finished: %d, want 503", code)
	}
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for get("/v1/readyz") != http.StatusOK {
		if time.Now().After(deadline) {
			t.Fatal("readyz never turned 200 after boot")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// The server owned the boot-built controller and closed it.
	if _, err := booted.Ingest([]Request{{}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("boot-owned controller still open after shutdown: %v", err)
	}
	// Controller.Close is idempotent.
	if err := booted.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestNoGoroutineLeak runs a full server lifecycle — boot, ticker on a
// mock clock, HTTP traffic, shutdown mid-horizon — and checks the
// goroutine count returns to baseline.
func TestNoGoroutineLeak(t *testing.T) {
	base := testInstance(t)
	baseline := runtime.NumGoroutine()

	clock := NewMockClock(time.Unix(0, 0))
	const period = 50 * time.Millisecond
	srv, err := NewServer(ServerConfig{
		Boot: func(ctx context.Context) (*Controller, error) {
			return New(ctx, base, Config{Online: online.RHC(4), EstimatorFloor: -1})
		},
		Clock: clock, SlotDuration: period,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("localhost:0"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.Controller() == nil {
		if time.Now().After(deadline) {
			t.Fatal("boot never finished")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/v1/stats", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	clock.Advance(3 * period) // a few ticks, shutdown mid-horizon
	waitSlot(t, srv.Controller(), 1)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	http.DefaultClient.CloseIdleConnections()

	deadline = time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d baseline, %d after shutdown\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
