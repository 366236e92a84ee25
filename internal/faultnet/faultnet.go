// Package faultnet wraps net.Conn with deterministic, seeded fault
// injection: silent drops, connection resets, partial writes and stalls.
// It exists so every robustness path of the replaynet closed-loop driver —
// retransmission, reconnect-and-resume, RTO backoff, malformed-stream
// handling — is exercisable in-process by ordinary unit tests, with the
// fault schedule a pure function of the configured seed rather than of a
// flaky network.
//
// A faulty Conn is usable on either side of a connection: a driver wraps
// its dialed conns (Dialer), a server wraps its accepted conns (Listener).
// Faults fire per Write/Read call:
//
//   - Drop reports a successful write without sending the bytes — the
//     stream desynchronizes, exactly like a lost segment tail, and the
//     peer sees either a stall or a malformed frame.
//   - Partial sends a prefix of the buffer, then severs the connection.
//   - Reset severs the connection immediately (RST-like).
//   - Stall sleeps StallDur before proceeding (head-of-line blocking).
//
// Determinism contract: a Conn's fault schedule depends only on its seed
// and the sequence of Read/Write calls made on it. Listener and Dialer
// derive per-connection seeds from the base seed and the connection
// ordinal, so test runs replay the same faults as long as connections are
// established in the same order.
package faultnet

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Config is the fault schedule of one connection. The zero value injects
// nothing and adds no overhead beyond a method indirection.
type Config struct {
	// Seed keys the deterministic fault schedule.
	Seed uint64

	// DropProb silently discards a Write (reported as fully written).
	DropProb float64
	// ResetProb severs the connection instead of a Write.
	ResetProb float64
	// PartialProb writes a strict prefix of the buffer and then severs the
	// connection (only fires on buffers of ≥ 2 bytes).
	PartialProb float64
	// StallProb sleeps StallDur before a Write or Read proceeds.
	StallProb float64
	// StallDur is the stall duration (default 10ms when StallProb > 0).
	StallDur time.Duration
}

// active reports whether the config injects any fault at all.
func (c Config) active() bool {
	return c.DropProb > 0 || c.ResetProb > 0 || c.PartialProb > 0 || c.StallProb > 0
}

// Validate checks probability ranges.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"DropProb", c.DropProb}, {"ResetProb", c.ResetProb}, {"PartialProb", c.PartialProb}, {"StallProb", c.StallProb}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faultnet: %s must be in [0,1], got %v", p.name, p.v)
		}
	}
	return nil
}

// mix64 is SplitMix64's finalizer — the repo-wide cheap seeded mixer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a SplitMix64 stream.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	x := r.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// float returns a uniform float64 in [0, 1).
func (r *rng) float() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// Conn injects the configured faults into an underlying net.Conn. Reads
// and writes each take a small mutex so the fault schedule is well-defined
// under the one-reader-one-writer usage pattern of the replaynet protocol;
// a severed connection reports errReset from then on.
type Conn struct {
	net.Conn
	cfg Config

	wmu  sync.Mutex
	wrng rng

	rmu  sync.Mutex
	rrng rng

	severed atomic.Bool

	// Counters let tests assert the schedule actually fired.
	Drops, Resets, Partials, Stalls atomic.Int64
}

// Wrap returns c with cfg's fault schedule applied. A zero cfg passes
// everything through untouched.
func Wrap(c net.Conn, cfg Config) *Conn {
	if cfg.StallDur <= 0 {
		cfg.StallDur = 10 * time.Millisecond
	}
	return &Conn{
		Conn: c,
		cfg:  cfg,
		wrng: rng{state: mix64(cfg.Seed ^ 0x77a5)},
		rrng: rng{state: mix64(cfg.Seed ^ 0x33c9)},
	}
}

// errReset is returned after the fault schedule severs the connection.
type resetError struct{}

func (resetError) Error() string   { return "faultnet: connection reset by fault injection" }
func (resetError) Timeout() bool   { return false }
func (resetError) Temporary() bool { return false }

// sever closes the underlying conn and fails this and all future calls.
func (f *Conn) sever() error {
	f.severed.Store(true)
	_ = f.Conn.Close()
	return resetError{}
}

// Write applies the fault schedule, then writes.
func (f *Conn) Write(b []byte) (int, error) {
	if !f.cfg.active() {
		return f.Conn.Write(b)
	}
	f.wmu.Lock()
	defer f.wmu.Unlock()
	if f.severed.Load() {
		return 0, resetError{}
	}
	if f.cfg.StallProb > 0 && f.wrng.float() < f.cfg.StallProb {
		f.Stalls.Add(1)
		time.Sleep(f.cfg.StallDur)
	}
	if f.cfg.ResetProb > 0 && f.wrng.float() < f.cfg.ResetProb {
		f.Resets.Add(1)
		return 0, f.sever()
	}
	if f.cfg.PartialProb > 0 && len(b) >= 2 && f.wrng.float() < f.cfg.PartialProb {
		f.Partials.Add(1)
		n, err := f.Conn.Write(b[:len(b)/2])
		serr := f.sever()
		if err == nil {
			err = serr
		}
		return n, err
	}
	if f.cfg.DropProb > 0 && f.wrng.float() < f.cfg.DropProb {
		f.Drops.Add(1)
		return len(b), nil // reported sent, never hits the wire
	}
	return f.Conn.Write(b)
}

// Read applies the read-side fault schedule (stalls), then reads.
func (f *Conn) Read(b []byte) (int, error) {
	if f.cfg.StallProb <= 0 {
		return f.Conn.Read(b)
	}
	f.rmu.Lock()
	stall := f.severed.Load() == false && f.rrng.float() < f.cfg.StallProb
	f.rmu.Unlock()
	if stall {
		f.Stalls.Add(1)
		time.Sleep(f.cfg.StallDur)
	}
	return f.Conn.Read(b)
}

// Listener wraps accepted connections with per-connection fault schedules
// derived from cfg.Seed and the accept ordinal.
type Listener struct {
	net.Listener
	cfg Config
	n   atomic.Uint64
}

// WrapListener returns ln with every accepted conn wrapped in cfg's fault
// schedule (connection i uses seed mix64(Seed + i)).
func WrapListener(ln net.Listener, cfg Config) *Listener {
	return &Listener{Listener: ln, cfg: cfg}
}

// Accept wraps the next accepted connection.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cfg := l.cfg
	cfg.Seed = mix64(l.cfg.Seed + l.n.Add(1))
	return Wrap(c, cfg), nil
}

// Dialer returns a dial function that wraps each dialed TCP connection in
// cfg's fault schedule; dial i uses seed mix64(Seed ^ (i<<1 | 1)), so the
// client-side schedule is independent of the server side's at equal seeds.
func Dialer(cfg Config) func(addr string) (net.Conn, error) {
	var n atomic.Uint64
	return func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		dcfg := cfg
		dcfg.Seed = mix64(cfg.Seed ^ (n.Add(1)<<1 | 1))
		return Wrap(c, dcfg), nil
	}
}
