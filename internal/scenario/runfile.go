package scenario

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"cptgpt/internal/events"
	"cptgpt/internal/tracez"
)

// recordSize is the on-disk size of one spilled event: time(8) ue(8)
// seq(4) type(1) device(1), little-endian.
const recordSize = 22

// blockSize is the unit run files are written and read in: records are
// encoded straight into (and decoded straight out of) one buffer of 2048
// whole records, and the file sees one Write or ReadFull per block.
const blockSize = 2048 * recordSize

func encodeRecord(buf []byte, e Event) {
	binary.LittleEndian.PutUint64(buf[0:8], math.Float64bits(e.Time))
	binary.LittleEndian.PutUint64(buf[8:16], e.UE)
	binary.LittleEndian.PutUint32(buf[16:20], e.Seq)
	buf[20] = byte(e.Type)
	buf[21] = byte(e.Device)
}

func decodeRecord(buf []byte) Event {
	return Event{
		Time:   math.Float64frombits(binary.LittleEndian.Uint64(buf[0:8])),
		UE:     binary.LittleEndian.Uint64(buf[8:16]),
		Seq:    binary.LittleEndian.Uint32(buf[16:20]),
		Type:   events.Type(buf[20]),
		Device: events.DeviceType(buf[21]),
	}
}

// run names one sorted run file and the bytes its writer put there. The
// size travels with the path so a merge pass charges the spill budget, and a
// reader knows where its file must end, without asking the file system.
type run struct {
	path  string
	bytes int64
}

// runWriter writes one run file a block at a time. The first write error
// sticks: later puts are dropped and finish reports it.
type runWriter struct {
	f     *os.File
	buf   []byte
	n     int   // bytes of buf filled
	bytes int64 // bytes handed to the file
	err   error
}

func createRun(path string) (*runWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: creating run %s: %w", path, err)
	}
	return &runWriter{f: f, buf: make([]byte, blockSize)}, nil
}

func (w *runWriter) put(e Event) {
	if w.n == len(w.buf) {
		w.flush()
	}
	encodeRecord(w.buf[w.n:w.n+recordSize], e)
	w.n += recordSize
}

func (w *runWriter) flush() {
	if w.err == nil && w.n > 0 {
		if _, err := w.f.Write(w.buf[:w.n]); err != nil {
			w.err = fmt.Errorf("scenario: writing run %s: %w", w.f.Name(), err)
		}
		w.bytes += int64(w.n)
	}
	w.n = 0
}

// finish writes the last block, closes the file and returns the run.
func (w *runWriter) finish() (run, error) {
	w.flush()
	if err := w.f.Close(); err != nil && w.err == nil {
		w.err = fmt.Errorf("scenario: closing run %s: %w", w.f.Name(), err)
	}
	return run{path: w.f.Name(), bytes: w.bytes}, w.err
}

// writeRun spills a chunk's events to path in the given order, charging the
// spill account first so a quota breach aborts before the disk fills further.
func writeRun(path string, evs []Event, order []sortKey, acct *spillAccount) (run, error) {
	if err := acct.add(int64(len(order)) * recordSize); err != nil {
		return run{}, err
	}
	w, err := createRun(path)
	if err != nil {
		return run{}, err
	}
	for _, k := range order {
		w.put(evs[k.idx])
	}
	return w.finish()
}

// runReader reads one spilled run sequentially, a block at a time.
type runReader struct {
	cur      Event
	buf      []byte
	pos, end int   // the undecoded part of buf
	left     int64 // bytes of the run still in the file
	f        *os.File
}

func openRun(r run) (*runReader, error) {
	f, err := os.Open(r.path)
	if err != nil {
		return nil, fmt.Errorf("scenario: opening run %s: %w", r.path, err)
	}
	return &runReader{f: f, left: r.bytes, buf: make([]byte, min(r.bytes, blockSize))}, nil
}

// next loads the run's next event into cur; ok=false once the run's bytes
// are used up. A file that ends before that — mid-record or not — is an
// io.ErrUnexpectedEOF error, never a shorter run.
func (r *runReader) next() (ok bool, err error) {
	if r.pos == r.end {
		if r.left == 0 {
			return false, nil
		}
		n := int(min(r.left, int64(len(r.buf))))
		if _, err := io.ReadFull(r.f, r.buf[:n]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return false, fmt.Errorf("scenario: reading run %s: %w", r.f.Name(), err)
		}
		r.left -= int64(n)
		r.pos, r.end = 0, n
	}
	r.cur = decodeRecord(r.buf[r.pos : r.pos+recordSize])
	r.pos += recordSize
	return true, nil
}

func (r *runReader) close() error { return r.f.Close() }

// merger is the k-way merge of sorted runs: a min-heap of run readers keyed
// by each reader's current event. Both the lazy final merge behind
// Stream.Next and the fan-in reduction passes pull from it.
type merger struct {
	h   []mergeEntry
	err error
}

// mergeEntry is one heap slot: a run reader beside a copy of its current
// event's time, so most comparisons never leave the heap's own memory.
type mergeEntry struct {
	t float64
	r *runReader
}

func (a mergeEntry) less(b mergeEntry) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.r.cur.less(b.r.cur)
}

// openMerger opens every run and primes each reader with its first event
// (dropping empty runs). On error every run opened so far is closed.
func openMerger(runs []run) (*merger, error) {
	m := &merger{}
	for _, run := range runs {
		if run.bytes == 0 {
			continue
		}
		r, err := openRun(run)
		if err == nil {
			m.h = append(m.h, mergeEntry{r: r})
			_, err = r.next()
		}
		if err != nil {
			m.close()
			return nil, err
		}
		m.h[len(m.h)-1].t = r.cur.Time
	}
	for i := len(m.h)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return m, nil
}

// siftDown restores the heap below position i.
func (m *merger) siftDown(i int) {
	h := m.h
	e := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].less(h[c]) {
			c++
		}
		if !h[c].less(e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}

// next pops the smallest event and refills from the run it came from;
// ok=false at exhaustion or after an error (see err).
func (m *merger) next() (e Event, ok bool) {
	if m.err != nil || len(m.h) == 0 {
		return Event{}, false
	}
	r := m.h[0].r
	e = r.cur
	more, err := r.next()
	if err != nil {
		m.err = err
		return Event{}, false
	}
	if more {
		m.h[0].t = r.cur.Time
	} else {
		last := len(m.h) - 1
		m.h[0], m.h[last] = m.h[last], mergeEntry{}
		m.h = m.h[:last]
		m.err = r.close()
	}
	if len(m.h) > 1 {
		m.siftDown(0)
	}
	return e, true
}

// close releases the runs still open.
func (m *merger) close() {
	for _, e := range m.h {
		e.r.close()
	}
	m.h = nil
}

// reduceRuns merges run files until at most fanIn remain. Each pass merges
// only the minimal prefix — min(fanIn, excess+1) runs — into one run
// appended at the queue's tail, so a trace just over the fan-in boundary
// rewrites a couple of runs, not the whole spill, and deep reductions
// re-merge each byte O(1) times on average. Merging never reorders the
// (Time, UE, Seq) total order, so the final stream is independent of how
// many passes happened.
func reduceRuns(ctx context.Context, runs []run, fanIn int, dir string, acct *spillAccount) ([]run, error) {
	for seq := 0; len(runs) > fanIn; seq++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		k := min(fanIn, len(runs)-fanIn+1)
		// The merge output is as large as its inputs combined; charge it
		// up front so the quota covers the pass's 2× peak, not just the
		// steady state.
		var inBytes int64
		for _, r := range runs[:k] {
			inBytes += r.bytes
		}
		if err := acct.add(inBytes); err != nil {
			return nil, err
		}
		out, err := mergeRunFiles(runs[:k], filepath.Join(dir, fmt.Sprintf("merge-%06d.bin", seq)))
		if err != nil {
			return nil, err
		}
		// The merged inputs are dead weight; delete them eagerly so disk
		// usage stays ~2× the trace instead of growing per pass.
		for _, r := range runs[:k] {
			os.Remove(r.path)
		}
		acct.sub(inBytes)
		runs = append(runs[k:], out)
	}
	return runs, nil
}

// mergeRunFiles k-way merges sorted run files into one sorted run: it drains
// a merger into a run writer.
func mergeRunFiles(runs []run, path string) (run, error) {
	sp := tracez.Begin(tracez.StageScenarioMerge, "")
	m, err := openMerger(runs)
	if err != nil {
		return run{}, err
	}
	defer m.close()
	w, err := createRun(path)
	if err != nil {
		return run{}, err
	}
	for w.err == nil {
		e, ok := m.next()
		if !ok {
			break
		}
		w.put(e)
	}
	out, err := w.finish()
	if m.err != nil {
		err = m.err
	}
	if sp.Live() {
		sp.End(out.bytes/recordSize, fmt.Sprintf("k=%d", len(runs)))
	}
	return out, err
}
