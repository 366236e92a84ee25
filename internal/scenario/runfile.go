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
// whole records, and the file sees one Write or ReadFull per block. A
// sub-merge feeds its merger blocks of the same size and encoding.
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

// createRun creates the run file at path, to be written through block, a
// buffer of blockSize bytes; nil makes one.
func createRun(path string, block []byte) (*runWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: creating run %s: %w", path, err)
	}
	if block == nil {
		block = make([]byte, blockSize)
	}
	return &runWriter{f: f, buf: block}, nil
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

// writeRun spills a chunk's events to path in the given order through the
// block buffer (see createRun), charging the spill account first so a quota
// breach aborts before the disk fills further.
func writeRun(path string, evs []Event, order []sortKey, acct *spillAccount, block []byte) (run, error) {
	if err := acct.add(int64(len(order)) * recordSize); err != nil {
		return run{}, err
	}
	w, err := createRun(path, block)
	if err != nil {
		return run{}, err
	}
	for _, k := range order {
		w.put(evs[k.idx])
	}
	return w.finish()
}

// runSource is one sorted run as a merger reads it: consecutive blocks of
// whole records in the run-file encoding. A spilled run file (runReader)
// and a sub-merge's feed (subMerge) are the program's two; tests feed the
// merge from memory through the same seam.
type runSource interface {
	// nextBlock returns the run's next records in order; an empty block
	// with a nil error ends the run. The block is valid until the next call.
	nextBlock() ([]byte, error)
	// close releases the source; a merger calls it once.
	close() error
}

// runReader reads one spilled run sequentially, a block at a time.
type runReader struct {
	f    *os.File
	buf  []byte
	left int64 // bytes of the run still in the file
}

func openRun(r run) (*runReader, error) {
	f, err := os.Open(r.path)
	if err != nil {
		return nil, fmt.Errorf("scenario: opening run %s: %w", r.path, err)
	}
	return &runReader{f: f, left: r.bytes, buf: make([]byte, min(r.bytes, blockSize))}, nil
}

// nextBlock reads the run's next block. A file that ends before the run's
// bytes are used up — mid-record or not — is an io.ErrUnexpectedEOF error,
// never a shorter run.
func (r *runReader) nextBlock() ([]byte, error) {
	if r.left == 0 {
		return nil, nil
	}
	blk := r.buf[:min(r.left, int64(len(r.buf)))]
	if _, err := io.ReadFull(r.f, blk); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("scenario: reading run %s: %w", r.f.Name(), err)
	}
	r.left -= int64(len(blk))
	return blk, nil
}

func (r *runReader) close() error { return r.f.Close() }

// merger is the k-way merge of sorted run sources: a min-heap of cursors
// keyed by each cursor's current event. The reduction passes, the
// sub-merges and the lazy final merge behind Stream.Next all pull from one.
type merger struct {
	h   []mergeEntry
	err error
}

// cursor is a run source, the block it returned last and the current
// event, decoded from the record at blk[pos].
type cursor struct {
	cur Event
	blk []byte
	pos int
	src runSource
}

// mergeEntry is one heap slot: a cursor beside a copy of its current
// event's time, so most comparisons never leave the heap's own memory.
type mergeEntry struct {
	t float64
	c *cursor
}

func (a mergeEntry) less(b mergeEntry) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.c.cur.less(b.c.cur)
}

// newMerger primes every source with its first block, closes and drops the
// empty ones and heaps the rest. It owns srcs: on error each is closed.
func newMerger(srcs []runSource) (*merger, error) {
	m := &merger{h: make([]mergeEntry, 0, len(srcs))}
	for i, src := range srcs {
		blk, err := src.nextBlock()
		if err != nil {
			m.close()
			closeAll(srcs[i:])
			return nil, err
		}
		if len(blk) == 0 {
			src.close()
			continue
		}
		c := &cursor{cur: decodeRecord(blk), blk: blk, src: src}
		m.h = append(m.h, mergeEntry{t: c.cur.Time, c: c})
	}
	for i := len(m.h)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return m, nil
}

func closeAll(srcs []runSource) {
	for _, src := range srcs {
		src.close()
	}
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

// next pops the smallest event and advances the source it came from;
// ok=false at exhaustion or after an error (see err).
func (m *merger) next() (e Event, ok bool) {
	if m.err != nil || len(m.h) == 0 {
		return Event{}, false
	}
	c := m.h[0].c
	e = c.cur
	c.pos += recordSize
	if c.pos == len(c.blk) {
		blk, err := c.src.nextBlock()
		if err != nil {
			m.err = err
			return Event{}, false
		}
		c.blk, c.pos = blk, 0
	}
	if c.pos < len(c.blk) {
		c.cur = decodeRecord(c.blk[c.pos : c.pos+recordSize])
		m.h[0].t = c.cur.Time
	} else {
		last := len(m.h) - 1
		m.h[0], m.h[last] = m.h[last], mergeEntry{}
		m.h = m.h[:last]
		m.err = c.src.close()
	}
	if len(m.h) > 1 {
		m.siftDown(0)
	}
	return e, true
}

// close releases the sources still open; for a split merge that stops and
// joins its sub-merges.
func (m *merger) close() {
	for _, e := range m.h {
		e.c.src.close()
	}
	m.h = nil
}

// minSplitRuns is the smallest merge openMerger splits into sub-merges. A
// split pays an encode and a decode per event and a second heap on the
// consumer's goroutine. Merging 512k events on two 2.1 GHz cores, the
// two-way split lost at 5 runs (median 53 against 41 ns/event in one heap)
// and won from 8 (48 against 52; 54 against 59 at 10);
// BenchmarkScenarioRunCodec's 64 runs merge at about 68 against 98.
const minSplitRuns = 8

// openMerger opens the non-empty runs and merges them at up to degree
// goroutines (splitMerge). Merges of fewer than minSplitRuns runs are one
// heap on the caller's goroutine. On error every run opened so far is
// closed.
func openMerger(runs []run, degree int) (*merger, error) {
	var srcs []runSource
	var weights []int64
	for _, r := range runs {
		if r.bytes == 0 {
			continue
		}
		rd, err := openRun(r)
		if err != nil {
			closeAll(srcs)
			return nil, err
		}
		srcs = append(srcs, rd)
		weights = append(weights, r.bytes)
	}
	if len(srcs) < minSplitRuns {
		degree = 1
	}
	return splitMerge(srcs, weights, degree)
}

// splitMerge merges sorted sources at up to degree goroutines. The sources
// are cut into contiguous groups of about equal weight (cutGroups); each
// group is merged by a subMerge and one heap merges their feeds. At degree
// 1, or with one source, it is one heap on the caller's goroutine. It owns
// srcs: on error each is closed.
func splitMerge(srcs []runSource, weights []int64, degree int) (*merger, error) {
	ends := cutGroups(weights, degree)
	if ends == nil {
		return newMerger(srcs)
	}
	feeds := make([]runSource, 0, len(ends))
	lo := 0
	for _, hi := range ends {
		m, err := newMerger(srcs[lo:hi])
		if err != nil {
			closeAll(feeds)
			closeAll(srcs[hi:])
			return nil, err
		}
		feeds = append(feeds, startSubMerge(m))
		lo = hi
	}
	return newMerger(feeds)
}

// cutGroups cuts sources of the given weights into g = min(degree,
// len(weights)) contiguous, non-empty groups of about equal total weight
// and returns each group's end index; nil when g < 2.
func cutGroups(weights []int64, degree int) []int {
	n := len(weights)
	g := min(degree, n)
	if g < 2 {
		return nil
	}
	var total int64
	for _, w := range weights {
		total += w
	}
	ends := make([]int, g)
	var acc int64
	j := 0
	for i := 0; i < g-1; i++ {
		target := total * int64(i+1) / int64(g)
		// A group takes its first source unconditionally and stops at the
		// boundary nearest its share, leaving a source for each group
		// after it.
		acc += weights[j]
		j++
		for j < n-(g-1-i) && acc+weights[j]/2 <= target {
			acc += weights[j]
			j++
		}
		ends[i] = j
	}
	ends[g-1] = n
	return ends
}

// feedBlocks is how many blocks circulate between a sub-merge and its
// consumer: the sub-merge fills one while the consumer drains another and
// the rest absorb scheduling jitter between the two goroutines. In
// BenchmarkScenarioRunCodec at degree 2 on two cores, two blocks merge
// ~15 % slower than four; eight or sixteen are no faster.
const feedBlocks = 4

// subMerge merges one group of runs on its own goroutine into a ring of
// encoded record blocks and hands them, in order, to the merger above it,
// for which it is a runSource.
type subMerge struct {
	full chan []byte   // merged blocks; closed when the producer stops
	free chan []byte   // drained blocks, back to the producer
	stop chan struct{} // closed by close
	done chan struct{} // closed once the producer has closed its runs
	err  error         // the producer's error, set before full is closed
	held []byte        // the block the consumer is draining
}

// startSubMerge starts draining m on a goroutine of its own; the subMerge
// owns m from here and closes it when the goroutine exits.
func startSubMerge(m *merger) *subMerge {
	// Both channels hold every block in circulation, so neither side's
	// send ever blocks.
	s := &subMerge{
		full: make(chan []byte, feedBlocks),
		free: make(chan []byte, feedBlocks),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for i := 0; i < feedBlocks; i++ {
		s.free <- make([]byte, blockSize)
	}
	go s.produce(m)
	return s
}

func (s *subMerge) produce(m *merger) {
	defer close(s.done)
	defer m.close()
	defer close(s.full)
	for {
		var blk []byte
		select {
		case blk = <-s.free:
		case <-s.stop:
			return
		}
		n := 0
		for ; n < blockSize; n += recordSize {
			e, ok := m.next()
			if !ok {
				break
			}
			encodeRecord(blk[n:n+recordSize], e)
		}
		if m.err != nil {
			s.err = m.err
			return
		}
		if n == 0 {
			return
		}
		s.full <- blk[:n]
	}
}

func (s *subMerge) nextBlock() ([]byte, error) {
	if s.held != nil {
		s.free <- s.held[:cap(s.held)]
		s.held = nil
	}
	blk, ok := <-s.full
	if !ok {
		return nil, s.err
	}
	s.held = blk
	return blk, nil
}

// close stops the producer and returns once it has exited and closed its
// runs.
func (s *subMerge) close() error {
	close(s.stop)
	<-s.done
	return nil
}

// prefixLen is how many runs a reduction pass over n runs merges: the
// minimal prefix, min(fanIn, n−fanIn+1), that brings n to fanIn in one
// pass or takes a whole fan-in's worth toward it; 0 when n ≤ fanIn.
func prefixLen(n, fanIn int) int {
	if n <= fanIn {
		return 0
	}
	return min(fanIn, n-fanIn+1)
}

// reduceRuns merges run files until at most fanIn remain. Each pass merges
// only the minimal prefix (prefixLen) into one run appended at the queue's
// tail, so a trace just over the fan-in boundary rewrites a couple of runs,
// not the whole spill, and deep reductions re-merge each byte O(1) times on
// average. Merging never reorders the (Time, UE, Seq) total order, so the
// final stream is independent of how many passes happened.
func reduceRuns(ctx context.Context, runs []run, fanIn, degree int, dir string, acct *spillAccount) ([]run, error) {
	for seq := 0; len(runs) > fanIn; seq++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		k := prefixLen(len(runs), fanIn)
		out, err := mergePass(ctx, runs[:k], filepath.Join(dir, fmt.Sprintf("merge-%06d.bin", seq)), degree, acct)
		if err != nil {
			return nil, err
		}
		runs = append(runs[k:], out)
	}
	return runs, nil
}

// mergePass k-way merges sorted run files into one sorted run at path, at up
// to degree goroutines (see openMerger), and deletes the inputs. The output
// is as large as its inputs combined: it is charged up front, so the quota
// covers the pass's 2× peak, and the inputs' bytes are released once they
// are deleted, so disk usage stays ~2× the trace instead of growing per
// pass. A cancelled ctx stops the pass within a block.
func mergePass(ctx context.Context, runs []run, path string, degree int, acct *spillAccount) (run, error) {
	var inBytes int64
	for _, r := range runs {
		inBytes += r.bytes
	}
	if err := acct.add(inBytes); err != nil {
		return run{}, err
	}
	sp := tracez.Begin(tracez.StageScenarioMerge, "")
	m, err := openMerger(runs, degree)
	if err != nil {
		return run{}, err
	}
	defer m.close()
	w, err := createRun(path, nil)
	if err != nil {
		return run{}, err
	}
	for n := 0; w.err == nil; n++ {
		if n%(blockSize/recordSize) == 0 {
			if err = ctx.Err(); err != nil {
				break
			}
		}
		e, ok := m.next()
		if !ok {
			break
		}
		w.put(e)
	}
	out, werr := w.finish()
	if err == nil {
		err = m.err
	}
	if err == nil {
		err = werr
	}
	if err != nil {
		return run{}, err
	}
	for _, r := range runs {
		os.Remove(r.path)
	}
	acct.sub(inBytes)
	if sp.Live() {
		sp.End(out.bytes/recordSize, fmt.Sprintf("k=%d", len(runs)))
	}
	return out, nil
}
