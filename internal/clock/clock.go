// Package clock is the time source of the timing contracts: the pacer's
// release instants, the closed-loop replay driver's stamps, RTO and
// backoff, the replay server's service schedule and the journal's
// checkpoint cadence. Production code runs on Wall; tests run on a Manual
// clock, which moves only when told to, so those contracts are checked
// exactly, with no sleep and no tolerance.
package clock

import (
	"sync"
	"time"
)

// Clock reads the time and makes timers.
type Clock interface {
	Now() time.Time
	NewTimer(d time.Duration) *Timer
}

// Wall is the real clock.
var Wall Clock = wall{}

type wall struct{}

func (wall) Now() time.Time { return time.Now() }

func (wall) NewTimer(d time.Duration) *Timer {
	t := time.NewTimer(d)
	return &Timer{C: t.C, stop: func() { t.Stop() }, reset: func(d time.Duration) { t.Reset(d) }}
}

// Timer sends the time on C once its deadline passes, like time.Timer,
// but Stop also drains C and Reset works in any state.
type Timer struct {
	C     <-chan time.Time
	stop  func()
	reset func(time.Duration)
}

// Stop disarms t and discards a send C still holds.
func (t *Timer) Stop() {
	t.stop()
	select {
	case <-t.C:
	default:
	}
}

// Reset stops t and arms it to fire d from now.
func (t *Timer) Reset(d time.Duration) {
	t.Stop()
	t.reset(d)
}

// Sleep blocks for d on c.
func Sleep(c Clock, d time.Duration) {
	if d > 0 {
		<-c.NewTimer(d).C
	}
}

// Manual is a test clock. It reads the Unix epoch until Advance moves it.
type Manual struct {
	mu      sync.Mutex
	armed   sync.Cond // broadcast when a timer is armed
	now     time.Time
	waiting []*alarm // armed timers, in arming order
}

// alarm is a Manual timer's deadline and channel.
type alarm struct {
	at time.Time
	c  chan time.Time
}

// NewManual returns a Manual clock.
func NewManual() *Manual {
	m := &Manual{now: time.Unix(0, 0)}
	m.armed.L = &m.mu
	return m
}

func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

func (m *Manual) NewTimer(d time.Duration) *Timer {
	a := &alarm{c: make(chan time.Time, 1)}
	m.set(a, d, true)
	return &Timer{C: a.c, stop: func() { m.set(a, 0, false) }, reset: func(d time.Duration) { m.set(a, d, true) }}
}

// Advance moves the clock d forward. Each timer due by then fires in
// deadline order (ties in arming order), the clock reading its deadline.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for end := m.now.Add(d); ; {
		next := -1
		for i, a := range m.waiting {
			if !a.at.After(end) && (next < 0 || a.at.Before(m.waiting[next].at)) {
				next = i
			}
		}
		if next < 0 {
			m.now = end
			return
		}
		a := m.waiting[next]
		m.waiting = append(m.waiting[:next], m.waiting[next+1:]...)
		m.now = a.at
		a.c <- a.at
	}
}

// BlockUntil returns once at least n timers are armed.
func (m *Manual) BlockUntil(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.waiting) < n {
		m.armed.Wait()
	}
}

// set disarms a and, with arm, arms it to fire d from now (at once if
// d <= 0). a's channel is empty: Timer.Stop drained it.
func (m *Manual) set(a *alarm, d time.Duration, arm bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, w := range m.waiting {
		if w == a {
			m.waiting = append(m.waiting[:i], m.waiting[i+1:]...)
			break
		}
	}
	if !arm {
		return
	}
	if a.at = m.now.Add(d); d <= 0 {
		a.c <- a.at
		return
	}
	m.waiting = append(m.waiting, a)
	m.armed.Broadcast()
}
