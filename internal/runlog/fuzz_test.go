package runlog

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fuzzJournal writes a clean journal — begin, checkpoints and state
// transitions interleaved — and returns its bytes, the end offset of every
// record prefix (ends[k] = byte length of the first k records) and the
// RunState each prefix folds to, built from the typed records appended
// rather than by scanning the file.
func fuzzJournal(t testing.TB) (data []byte, ends []int64, states []RunState) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run-1"+Ext)
	j, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var st RunState
	states = append(states, st)
	begin := testBegin()
	j.AppendBegin(begin)
	st.Begin = &begin
	st.Records++
	states = append(states, st)
	for i, state := range []string{"generating", "streaming", "", "", "", StateDone} {
		if state != "" {
			j.AppendState(state, "")
			st.State = state
		} else {
			ck := Checkpoint{
				Time: 1.5 * float64(i), UE: uint64(40 + i), Seq: uint32(i),
				Events: int64(1000 * i), TraceOffset: 1.5 * float64(i),
				SinkBytes: int64(81920 * i), SinkLines: int64(1000 * i),
			}
			j.AppendCheckpoint(ck)
			st.Checkpoint = &ck
		}
		st.Records++
		states = append(states, st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if data, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	ends = []int64{0}
	for off := int64(0); off < int64(len(data)); {
		off += 8 + int64(binary.LittleEndian.Uint32(data[off:]))
		ends = append(ends, off)
	}
	if len(ends) != len(states) || ends[len(ends)-1] != int64(len(data)) {
		t.Fatalf("journal has %d frames over %d bytes, appended %d records", len(ends)-1, len(data), len(states)-1)
	}
	return data, ends, states
}

// sameState compares what a journal says about its run, ignoring the
// bookkeeping of how the scan ended.
func sameState(a, b *RunState) bool {
	return reflect.DeepEqual(a.Begin, b.Begin) && reflect.DeepEqual(a.Checkpoint, b.Checkpoint) &&
		a.State == b.State && a.Error == b.Error && a.Records == b.Records
}

// FuzzRunlogLoad damages a valid journal the ways a crash or a bad disk
// can — cut anywhere (a torn tail), one byte flipped anywhere (a CRC or
// length or payload bit gone bad), arbitrary bytes after the cut — and
// feeds the result, and the arbitrary bytes on their own, to Load. Load
// must never panic, must report exactly the valid prefix it scanned
// (rescanning that prefix gives the same state, untorn), and the state must
// be the one the records before the first damaged byte produce — unless
// the appended bytes happen to continue the journal with more valid frames.
func FuzzRunlogLoad(f *testing.F) {
	clean, ends, states := fuzzJournal(f)
	n := uint16(len(clean))
	f.Add([]byte(nil), n, n, byte(0))                    // untouched
	f.Add([]byte(nil), uint16(ends[3]), n, byte(0))      // cut on a record boundary
	f.Add([]byte(nil), uint16(ends[3]+5), n, byte(0))    // cut inside a frame header
	f.Add([]byte(nil), uint16(ends[4]-1), n, byte(0))    // cut one byte short of a record
	f.Add([]byte(nil), n, uint16(ends[2]+4), byte(0x01)) // flipped CRC byte
	f.Add([]byte(nil), n, uint16(ends[2]), byte(0x80))   // flipped length byte
	f.Add([]byte(nil), n, uint16(ends[5]+20), byte(0xff))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, uint16(ends[2]), n, byte(0)) // oversized length after a valid prefix
	f.Add([]byte("{\"rec\":\"state\"}"), uint16(0), n, byte(0))
	f.Add(clean[ends[1]:ends[2]], uint16(ends[1]), n, byte(0)) // the tail is the journal's own next record
	dir := f.TempDir()                                         // one per worker process; its executions are sequential
	f.Fuzz(func(t *testing.T, tail []byte, cut, flip uint16, xor byte) {
		load := func(name string, b []byte) *RunState {
			path := filepath.Join(dir, name+Ext)
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := Load(path)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if st.Offset < 0 || st.Offset > int64(len(b)) || st.TornTail != (st.Offset != int64(len(b))) {
				t.Fatalf("%s: offset %d of %d bytes, torn=%v", name, st.Offset, len(b), st.TornTail)
			}
			return st
		}
		rescan := func(name string, b []byte, st *RunState) {
			again := load(name+"-prefix", b[:st.Offset])
			if again.TornTail || again.Offset != st.Offset || !sameState(again, st) {
				t.Fatalf("%s: rescanning the %d-byte valid prefix gives %+v, first scan %+v", name, st.Offset, again, st)
			}
		}
		rescan("tail", tail, load("tail", tail))

		keep := min(int(cut), len(clean))
		damaged := append(bytes.Clone(clean[:keep]), tail...)
		firstBad := keep
		if int(flip) < keep && xor != 0 {
			damaged[flip] ^= xor
			firstBad = int(flip)
		}
		st := load("damaged", damaged)
		rescan("damaged", damaged, st)
		intact := 0 // whole records before the first damaged byte
		for intact+1 < len(ends) && ends[intact+1] <= int64(firstBad) {
			intact++
		}
		if st.Records < intact {
			t.Fatalf("lost intact records: scanned %d, %d precede the damage at byte %d", st.Records, intact, firstBad)
		}
		if firstBad == keep && len(tail) > 0 && st.Records > intact {
			return // the appended bytes parsed as further frames
		}
		if want := &states[intact]; !sameState(st, want) || st.Offset != ends[intact] {
			t.Fatalf("damage at byte %d (cut %d, %d tail bytes): got %+v at offset %d, want the state of the first %d records %+v at offset %d",
				firstBad, keep, len(tail), st, st.Offset, intact, want, ends[intact])
		}
	})
}
