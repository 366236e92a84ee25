package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The generation engine shards its hot kernels (MatMul, Softmax, LayerNorm,
// CrossEntropy, batched decoding) across a persistent goroutine worker pool.
// Sharding is always row-wise over independent rows, so results are
// bit-identical to the serial path regardless of the configured degree or
// the number of pool workers — determinism tests in parallel_test.go pin
// this property down.

// parallelism holds the configured degree; 0 means "use GOMAXPROCS".
var parallelism atomic.Int32

// SetParallelism sets the process-global parallelism degree used by the
// tensor kernels and by ParallelFor. n ≤ 0 restores the default
// (GOMAXPROCS). It returns the previous setting (0 = default) so callers
// can scope an override:
//
//	prev := tensor.SetParallelism(8)
//	defer tensor.SetParallelism(prev)
func SetParallelism(n int) (prev int) {
	if n < 0 {
		n = 0
	}
	return int(parallelism.Swap(int32(n)))
}

// Parallelism returns the effective parallelism degree: the value set by
// SetParallelism, or GOMAXPROCS when unset.
func Parallelism() int {
	if n := parallelism.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// shard is one unit of pool work: run fn over [lo, hi) and signal wg.
type shard struct {
	fn     func(lo, hi int)
	lo, hi int
	wg     *sync.WaitGroup
}

// shardCh feeds the persistent workers. The buffer lets a submitter enqueue
// a full fan-out without blocking even when every worker is busy.
var shardCh = make(chan shard, 256)

// spawned tracks how many pool workers exist; workers are started lazily and
// live for the whole process (the pool is tiny: at most the highest degree
// ever requested).
var spawned atomic.Int32

// workerLoad is one pool worker's load accounting, all atomics in the
// cptgpt.DecodeStats idiom: the worker writes on its hot path, PoolLoad
// aggregates from any goroutine without synchronizing against the pool.
type workerLoad struct {
	// validPolls counts channel receives that yielded a shard; emptyPolls
	// counts the times the worker found the queue empty and had to block.
	// items accumulates the index-range width of every executed shard, so
	// items/validPolls is the mean shard size this worker has seen.
	validPolls atomic.Int64
	emptyPolls atomic.Int64
	items      atomic.Int64
}

// workerLoads registers every worker's counters (append-only, guarded by
// workerLoadsMu; readers copy the slice header under the lock and then read
// atomics lock-free).
var (
	workerLoadsMu sync.Mutex
	workerLoads   []*workerLoad
)

// PoolLoadStats is an aggregate snapshot of the worker pool's load
// counters since process start. Deltas between snapshots give a run or
// scrape window's pool utilization: a high empty-poll share means workers
// mostly wait (the pool is over-provisioned for the workload), a high
// items-per-poll means big shards (good amortization of hand-off cost).
type PoolLoadStats struct {
	// Workers is the number of pool workers spawned so far.
	Workers int
	// ValidPolls / EmptyPolls / Items aggregate the per-worker counters.
	ValidPolls int64
	EmptyPolls int64
	Items      int64
}

// PoolLoad snapshots the pool's aggregate load counters.
func PoolLoad() PoolLoadStats {
	workerLoadsMu.Lock()
	loads := workerLoads
	workerLoadsMu.Unlock()
	st := PoolLoadStats{Workers: len(loads)}
	for _, wl := range loads {
		st.ValidPolls += wl.validPolls.Load()
		st.EmptyPolls += wl.emptyPolls.Load()
		st.Items += wl.items.Load()
	}
	return st
}

func ensureWorkers(n int) {
	for {
		cur := spawned.Load()
		if int(cur) >= n {
			return
		}
		if spawned.CompareAndSwap(cur, cur+1) {
			wl := &workerLoad{}
			workerLoadsMu.Lock()
			workerLoads = append(workerLoads, wl)
			workerLoadsMu.Unlock()
			go func() {
				run := func(s shard) {
					wl.validPolls.Add(1)
					wl.items.Add(int64(s.hi - s.lo))
					s.fn(s.lo, s.hi)
					s.wg.Done()
				}
				for {
					// Non-blocking poll first so the empty/valid split is
					// observable; an empty queue is counted once and then
					// waited on (no spinning).
					select {
					case s := <-shardCh:
						run(s)
					default:
						wl.emptyPolls.Add(1)
						run(<-shardCh)
					}
				}
			}()
		}
	}
}

// wgPool recycles the WaitGroups that coordinate each fan-out, keeping the
// steady-state cost of a parallel call allocation-free.
var wgPool = sync.Pool{New: func() any { return new(sync.WaitGroup) }}

// parallelThreshold is the work size (in scalar multiply-adds or
// comparable units) above which a kernel shards across the pool; below it
// the goroutine hand-off costs more than it saves.
const parallelThreshold = 1 << 15

// ParallelFor runs fn over the index range [0, n), sharded across the
// worker pool when n·workPerItem exceeds the parallel threshold and the
// effective parallelism is > 1; otherwise it runs inline. fn must treat
// each index independently: ParallelFor guarantees every index is covered
// exactly once but says nothing about order or goroutine assignment.
// Results must therefore be bit-identical for every degree, which is what
// keeps batched generation deterministic.
func ParallelFor(n, workPerItem int, fn func(lo, hi int)) {
	ParallelForN(Parallelism(), n, workPerItem, fn)
}

// ParallelForN is ParallelFor at the caller's own degree p instead of the
// process-global one: at most p shards, and p ≤ 1 runs fn inline on the
// calling goroutine without touching the pool. A caller that already runs
// several goroutines of its own (a decode call's workers) passes each its
// share of the cores, so the shards in flight never outnumber them. The
// global degree still caps p, so no caller can grow the never-exiting pool
// past what SetParallelism allows.
func ParallelForN(p, n, workPerItem int, fn func(lo, hi int)) {
	p = min(p, Parallelism())
	if p <= 1 || n < 2 || n*workPerItem < parallelThreshold {
		fn(0, n)
		return
	}
	if p > n {
		p = n
	}
	ensureWorkers(p - 1)
	wg := wgPool.Get().(*sync.WaitGroup)
	chunk := (n + p - 1) / p
	// Shards 1..p-1 go to the pool; the submitting goroutine runs shard 0
	// itself so the pool never needs more than degree−1 workers.
	for w := 1; w < p; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		shardCh <- shard{fn: fn, lo: lo, hi: hi, wg: wg}
	}
	hi := chunk
	if hi > n {
		hi = n
	}
	fn(0, hi)
	wg.Wait()
	wgPool.Put(wg)
}

// bufPool recycles float64 scratch slices used inside kernels (per-row loss
// accumulators and the like). Slices are held by pointer so Put does not
// allocate an interface box.
var bufPool = sync.Pool{New: func() any { b := make([]float64, 0, 1024); return &b }}

// getBuf returns a zeroed scratch slice of length n from the pool, paired
// with the pool handle to pass back to putBuf.
func getBuf(n int) (buf []float64, handle *[]float64) {
	buf, handle = getRawBuf(n)
	clear(buf)
	return buf, handle
}

// getRawBuf is getBuf without the zeroing pass, for scratch that the caller
// fully overwrites (e.g. the packed operand panels of the blocked MatMul).
func getRawBuf(n int) (buf []float64, handle *[]float64) {
	handle = bufPool.Get().(*[]float64)
	b := *handle
	if cap(b) < n {
		b = make([]float64, n)
		*handle = b
	}
	return b[:n], handle
}

// putBuf returns a scratch slice to the pool.
func putBuf(handle *[]float64) {
	bufPool.Put(handle)
}
