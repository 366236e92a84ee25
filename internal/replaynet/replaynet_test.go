package replaynet

import (
	"bytes"
	"net"
	"testing"
	"time"

	"cptgpt/internal/events"
	"cptgpt/internal/synthetic"
	"cptgpt/internal/trace"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := eventPayload(7, 1234567, byte(events.ServiceRequest))
	if err := writeFrame(&buf, frameEvent, payload); err != nil {
		t.Fatal(err)
	}
	ft, got, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ft != frameEvent {
		t.Fatalf("frame type %q", byte(ft))
	}
	ue, ts, ev, err := decodeEvent(got)
	if err != nil {
		t.Fatal(err)
	}
	if ue != 7 || ts != 1234567 || events.Type(ev) != events.ServiceRequest {
		t.Fatalf("decoded %d %d %d", ue, ts, ev)
	}
}

func TestReadFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteByte(byte(frameEvent))
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // 4 GiB length
	if _, _, err := readFrame(&buf); err == nil {
		t.Fatal("oversized frame must be rejected")
	}
}

func TestDecodeEventRejectsShortPayload(t *testing.T) {
	if _, _, _, err := decodeEvent([]byte{1, 2, 3}); err == nil {
		t.Fatal("short payload must error")
	}
}

func TestServerEndToEnd(t *testing.T) {
	d, err := synthetic.Generate(synthetic.Config{
		Generation: events.Gen4G,
		Seed:       1,
		UEs:        map[events.DeviceType]int{events.Phone: 40},
		Hours:      1,
		StartHour:  10,
	})
	if err != nil {
		t.Fatal(err)
	}

	srv, err := ListenAndServe("127.0.0.1:0", events.Gen4G)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stats, err := Replay(srv.Addr().String(), d) // as fast as possible
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != d.NumEvents() {
		t.Fatalf("server saw %d of %d events", stats.Events, d.NumEvents())
	}
	if stats.Rejected != 0 {
		t.Fatalf("clean workload rejected %d events", stats.Rejected)
	}
	if stats.PeakConnectedUEs <= 0 {
		t.Fatal("peak connected UEs must be positive")
	}
	var total int
	for _, c := range stats.ByType {
		total += c
	}
	if total != stats.Events {
		t.Fatalf("per-type counts sum to %d, want %d", total, stats.Events)
	}
}

func TestServerRejectsInvalidSequence(t *testing.T) {
	d := &trace.Dataset{Generation: events.Gen4G, Streams: []trace.Stream{{
		UEID: "u", Device: events.Phone,
		Events: []trace.Event{
			{Time: 0, Type: events.ServiceRequest},
			{Time: 1, Type: events.ServiceRequest}, // invalid while connected
		},
	}}}
	srv, err := ListenAndServe("127.0.0.1:0", events.Gen4G)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	stats, err := Replay(srv.Addr().String(), d)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rejected != 1 {
		t.Fatalf("rejected %d, want 1", stats.Rejected)
	}
}

func TestServerGenerationMismatchClosesConn(t *testing.T) {
	srv, err := ListenAndServe("127.0.0.1:0", events.Gen4G)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, frameHello, []byte{byte(events.Gen5G)}); err != nil {
		t.Fatal(err)
	}
	// The server should close; the next read must fail (EOF).
	if _, _, err := readFrame(conn); err == nil {
		t.Fatal("expected connection close on generation mismatch")
	}
}

func TestConcurrentDrivers(t *testing.T) {
	mk := func(seed uint64) *trace.Dataset {
		d, err := synthetic.Generate(synthetic.Config{
			Generation: events.Gen4G,
			Seed:       seed,
			UEs:        map[events.DeviceType]int{events.Phone: 15},
			Hours:      1,
			StartHour:  10,
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d1, d2 := mk(2), mk(3)

	srv, err := ListenAndServe("127.0.0.1:0", events.Gen4G)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	done := make(chan error, 2)
	go func() {
		_, err := Replay(srv.Addr().String(), d1)
		done <- err
	}()
	go func() {
		_, err := Replay(srv.Addr().String(), d2)
		done <- err
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	snap := srv.Snapshot()
	if snap.Events != d1.NumEvents()+d2.NumEvents() {
		t.Fatalf("server saw %d events, want %d", snap.Events, d1.NumEvents()+d2.NumEvents())
	}
}

// TestServiceTimeIsARate pins ServiceTime as a rate: 2,000 events on one
// connection take 2,000 service times, within ±20 %, both at a service time
// shorter than a typical timer oversleep and at a longer one.
func TestServiceTimeIsARate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	const n = 2000
	for _, per := range []time.Duration{300 * time.Microsecond, time.Millisecond} {
		srv := mustServe(t, ServerOpts{ServiceTime: per})
		start := time.Now()
		st, err := ReplayStream(srv.Addr().String(), events.Gen4G, seqSource(n))
		if err != nil {
			t.Fatal(err)
		}
		rate, want := n/time.Since(start).Seconds(), 1/per.Seconds()
		if st.Events != n || rate < 0.8*want || rate > 1.2*want {
			t.Errorf("ServiceTime %v: %d events at %.0f/s, want %d at %.0f/s ± 20%%", per, st.Events, rate, n, want)
		}
	}
}
