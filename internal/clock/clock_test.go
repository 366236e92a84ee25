package clock

import (
	"sync"
	"testing"
	"time"
)

var epoch = time.Unix(0, 0)

// fired reports whether t's channel holds a send, taking it.
func fired(t *Timer) (time.Time, bool) {
	select {
	case at := <-t.C:
		return at, true
	default:
		return time.Time{}, false
	}
}

func TestManualResetAfterFire(t *testing.T) {
	m := NewManual()
	tm := m.NewTimer(time.Second)
	m.Advance(time.Second)
	if at, ok := fired(tm); !ok || !at.Equal(epoch.Add(time.Second)) {
		t.Fatalf("timer due at 1s: fired %v at %v after Advance(1s)", ok, at)
	}
	tm.Reset(2 * time.Second)
	m.Advance(2*time.Second - 1)
	if _, ok := fired(tm); ok {
		t.Fatal("reset timer fired a nanosecond early")
	}
	m.Advance(1)
	if at, ok := fired(tm); !ok || !at.Equal(epoch.Add(3*time.Second)) {
		t.Fatalf("reset timer: fired %v at %v, want at 3s", ok, at)
	}
	// Reset of a fired timer whose send was never taken discards it.
	m.Advance(time.Hour)
	tm.Reset(time.Second)
	m.Advance(time.Second)
	if at, ok := fired(tm); !ok || !at.Equal(epoch.Add(time.Hour+4*time.Second)) {
		t.Fatalf("timer reset while fired: sent %v at %v, want the new deadline", ok, at)
	}
	if _, ok := fired(tm); ok {
		t.Fatal("the stale send survived Reset")
	}
	// A non-positive duration fires at once.
	tm.Reset(0)
	if at, ok := fired(tm); !ok || !at.Equal(m.Now()) {
		t.Fatalf("Reset(0): fired %v at %v, want now", ok, at)
	}
}

func TestStopDrains(t *testing.T) {
	m := NewManual()
	tm := m.NewTimer(time.Second)
	m.Advance(time.Second)
	tm.Stop()
	if _, ok := fired(tm); ok {
		t.Fatal("Stop left a fired timer's send in C")
	}
	tm.Stop() // stopping a stopped, drained timer is a no-op
	tm.Reset(time.Second)
	tm.Stop()
	m.Advance(time.Hour)
	if _, ok := fired(tm); ok {
		t.Fatal("a stopped timer fired")
	}

	w := Wall.NewTimer(time.Nanosecond)
	if cap(w.C) == 0 {
		t.Skip("synchronous timer channels: a stopped timer holds no send")
	}
	for len(w.C) == 0 { // fired, unread
	}
	w.Stop()
	if _, ok := fired(w); ok {
		t.Fatal("Stop left a fired wall timer's send in C")
	}
}

// TestAdvanceFiresInDeadlineOrder: one step fires every timer due within
// it, each with its own deadline, and leaves the later ones armed.
func TestAdvanceFiresInDeadlineOrder(t *testing.T) {
	m := NewManual()
	var timers []*Timer
	deadlines := []time.Duration{30, 10, 20, 10, 50}
	for _, d := range deadlines {
		timers = append(timers, m.NewTimer(d*time.Millisecond))
	}
	m.Advance(40 * time.Millisecond)
	for i, tm := range timers {
		at, ok := fired(tm)
		if due := deadlines[i] <= 40; ok != due || due && !at.Equal(epoch.Add(deadlines[i]*time.Millisecond)) {
			t.Fatalf("timer due at %dms: fired %v at %v", deadlines[i], ok, at.Sub(epoch))
		}
	}
	if !m.Now().Equal(epoch.Add(40 * time.Millisecond)) {
		t.Fatalf("Now() = %v after Advance(40ms)", m.Now())
	}
	// A timer re-armed between steps counts from the clock's time.
	timers[0].Reset(time.Millisecond)
	m.Advance(15 * time.Millisecond)
	a, _ := fired(timers[0])
	b, _ := fired(timers[4])
	if !a.Equal(epoch.Add(41*time.Millisecond)) || !b.Equal(epoch.Add(50*time.Millisecond)) {
		t.Fatalf("fires at %v and %v, want 41ms and 50ms", a.Sub(epoch), b.Sub(epoch))
	}
}

func TestBlockUntil(t *testing.T) {
	m := NewManual()
	const n = 3
	armed := make(chan struct{})
	go func() {
		defer close(armed)
		m.BlockUntil(n)
	}()
	for i := 0; i < n; i++ {
		select {
		case <-armed:
			t.Fatalf("BlockUntil(%d) returned with %d timers armed", n, i)
		default:
		}
		m.NewTimer(time.Duration(i+1) * time.Second)
	}
	<-armed
	m.BlockUntil(n) // already satisfied: returns at once
	m.Advance(time.Second)
	m.BlockUntil(n - 1)
}

// TestConcurrentWaiters runs several goroutines that each wait on their own
// timer, re-arm it and wait again, against one goroutine advancing the
// clock — a -race check of the Manual clock's locking, and of every wait
// ending at its own deadline.
func TestConcurrentWaiters(t *testing.T) {
	m := NewManual()
	const waiters, rounds = 8, 20
	var wg sync.WaitGroup
	errs := make(chan string, waiters)
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			step := time.Duration(w+1) * time.Millisecond
			tm := m.NewTimer(step)
			for r := 1; r <= rounds; r++ {
				at := <-tm.C
				if want := epoch.Add(time.Duration(r) * step); !at.Equal(want) {
					errs <- at.Sub(epoch).String() + " != " + want.Sub(epoch).String()
					return
				}
				if r < rounds {
					tm.Reset(step)
				}
			}
		}(w)
	}
	// Every waiter's deadline falls on the 1ms grid; step one grid point at
	// a time once all are armed, so each re-arm happens before the clock
	// passes its next deadline.
	for now := 1; now <= waiters*rounds; now++ {
		live := 0
		for w := 0; w < waiters; w++ {
			if now <= (w+1)*rounds {
				live++
			}
		}
		m.BlockUntil(live)
		m.Advance(time.Millisecond)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestSleep(t *testing.T) {
	m := NewManual()
	done := make(chan time.Time)
	go func() {
		Sleep(m, 5*time.Second)
		done <- m.Now()
	}()
	m.BlockUntil(1)
	m.Advance(5 * time.Second)
	if at := <-done; !at.Equal(epoch.Add(5 * time.Second)) {
		t.Fatalf("Sleep(5s) returned at %v", at.Sub(epoch))
	}
	Sleep(m, 0) // returns at once, arming nothing
	Sleep(Wall, -time.Second)
}
