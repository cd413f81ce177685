package kernels

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"smat/internal/matrix"
)

// Pool is a persistent set of worker goroutines executing kernel chunks: the
// steady-state replacement for spawning `threads` goroutines on every SpMV
// call. Construct one per Library/Tuner with NewPool and pass it to
// Kernel.RunPooled. Chunk 0 always runs on the dispatching goroutine;
// workers start lazily on the first parallel dispatch and exit when the pool
// is closed or garbage-collected.
//
// An idle worker polls its own generation slot, and the dispatcher polls
// the barrier, for about parkAfter before parking on a channel, so a stream
// of dispatches reaches a worker that is already running on another core
// (DESIGN §7).
//
// A Pool is safe for concurrent use: one dispatch owns the workers at a
// time, and concurrent dispatches overflow to per-call goroutines instead of
// queueing behind each other.
type Pool[T matrix.Float] struct {
	s *poolState[T]
}

// parkAfter is how long an idle worker polls its generation slot, and the
// dispatcher the barrier, before parking on a channel. The gaps between the
// dispatches of the repository benchmark's workloads (2-vCPU Xeon VM) have
// a mode under 35 µs and a second one at 50–250 µs — two thirds of the
// solve workload's gaps — which is the caller's own work between SpMV
// calls; polling for about 150–210 µs already let 82–94% of worker handoffs
// find the worker still polling, against 30–80% for about 50 µs. The
// window is longer still because a park inside a stream of calls can
// allocate: a goroutine that parks takes a runtime wait record (sudog) from
// its P's cache and returns it to the cache of the P it resumes on, after a
// wake by the other side usually the other P, so the next park on the
// drained P allocates a new one. At about 200 µs, pauses of a few hundred
// microseconds between a caller's calls still let workers and the barrier
// park mid-stream; 2 ms outlasts them (DESIGN §7). An idle pool stops using
// its cores about 2 ms after its last dispatch.
const parkAfter = 2 * time.Millisecond

// spinRounds is how many runtime.Gosched rounds a poller runs between two
// reads of the clock. Gosched rather than a busy loop keeps polling
// goroutines from starving the ones they wait for when GOMAXPROCS is
// smaller than the fan-out.
const spinRounds = 1024

// cacheLine is the padding unit that keeps each worker's slot, and the
// barrier counter, on a cache line of their own.
const cacheLine = 64

// workerSlot is one worker's wake state. The dispatcher bumps gen to hand
// the worker the current dispatch. parked is zero while the worker runs or
// polls; a worker that stops polling after seeing generation g stores g+1
// there and waits on wake. Parking is tagged with the generation so that
// only the dispatch the worker has not yet seen can claim it: whichever
// side swaps parked from g+1 back to zero owns the handoff — the dispatcher
// sends exactly one token when it wins, the worker takes exactly one when
// it loses — and a dispatcher that bumped gen but was descheduled before
// its CompareAndSwap cannot wake the worker again once it has run that
// dispatch and parked anew.
type workerSlot struct {
	gen    atomic.Uint64
	parked atomic.Uint64
	wake   chan struct{}
	_      [cacheLine - 24]byte
}

// generation snapshots the slot's dispatch generation: one load per call,
// so the polling loops in wait take a fresh snapshot each round.
func (w *workerSlot) generation() uint64 { return w.gen.Load() }

// poolState is the worker-visible part of the pool. Workers hold only this
// inner struct, so an abandoned Pool becomes unreachable, its finalizer
// runs, and the workers exit instead of leaking.
type poolState[T matrix.Float] struct {
	threads int

	mu      sync.Mutex // owns the dispatch fields and worker startup
	started bool
	closed  bool
	// active is set while a dispatch holds the pool. A worker keeps
	// polling past parkAfter then — even one the dispatch does not use —
	// because the dispatcher is due back; a dispatcher stalled inside a
	// dispatch would otherwise let it park mid-stream. It is only a hint:
	// the park handshake is correct whatever a worker reads.
	active atomic.Bool

	// Dispatch state, written under mu before the workers' generations are
	// bumped: worker i computes chunk i+1. Exactly one of fn (SpMV
	// dispatch) and job (generic chunked dispatch, e.g. SpGEMM) is non-nil
	// per dispatch.
	fn     rangeFn[T]
	job    func(chunk, lo, hi int)
	mat    *Mat[T]
	x, y   []T
	k      int
	bounds []int
	slots  []*workerSlot
	stop   chan struct{}

	// The completion barrier: pending counts the workers still computing;
	// the one that takes it to zero sends on done if the dispatcher has
	// stopped polling and set waiting.
	_       [cacheLine]byte
	pending atomic.Int32
	waiting atomic.Bool
	_       [cacheLine - 8]byte
	done    chan struct{}

	// arena is the SpGEMM scratch attached to this pool, handed out under
	// its own lock (arenaOf) so repeated products reuse it while concurrent
	// callers fall back to private scratch.
	arenaMu sync.Mutex
	arena   *spgemmArena[T]
}

// NewPool builds a worker pool with the given thread fan-out; threads ≤ 0
// resolves GOMAXPROCS once, here, instead of on every kernel call.
func NewPool[T matrix.Float](threads int) *Pool[T] {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	s := &poolState[T]{
		threads: threads,
		done:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	p := &Pool[T]{s: s}
	runtime.SetFinalizer(p, func(p *Pool[T]) { p.s.shutdown() })
	return p
}

// Threads returns the pool's resolved thread count.
func (p *Pool[T]) Threads() int { return p.s.threads }

// Close stops the workers. Kernels may still be dispatched to a closed pool;
// they fall back to per-call goroutine fan-out.
func (p *Pool[T]) Close() {
	runtime.SetFinalizer(p, nil)
	p.s.shutdown()
}

func (s *poolState[T]) shutdown() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.stop)
	}
}

// acquire takes ownership of the workers for an nchunks-chunk dispatch,
// starting them on first use. It fails — leaving the caller to spawn — when
// another dispatch holds the pool, the pool is closed, or the dispatch is
// wider than the fan-out.
func (s *poolState[T]) acquire(nchunks int) bool {
	if !s.mu.TryLock() {
		return false
	}
	if s.closed || nchunks > s.threads {
		s.mu.Unlock()
		return false
	}
	if !s.started {
		s.start()
	}
	s.active.Store(true)
	return true
}

// tryRun dispatches the bounds chunks across the workers, returning false
// when the pool is busy with another SpMV or closed (the caller then falls
// back to spawning). The dispatching goroutine computes chunk 0 itself and
// then waits on the completion barrier. The whole dispatch allocates
// nothing.
//
// If chunk 0 panics, the deferred release still waits for every worker
// chunk before it clears the dispatch and unlocks the pool, and the panic
// then continues on the caller's goroutine: a recovered caller finds the
// pool idle and consistent.
func (s *poolState[T]) tryRun(bounds []int, fn rangeFn[T], m *Mat[T], x, y []T, k int) bool {
	nchunks := len(bounds) - 1
	if !s.acquire(nchunks) {
		return false
	}
	defer s.release()
	s.fn, s.mat, s.x, s.y, s.k, s.bounds = fn, m, x, y, k, bounds
	s.wakeWorkers(nchunks - 1)
	fn(m, x, y, k, bounds[0], bounds[1])
	return true
}

// RunChunks executes fn over the half-open chunks of bounds — chunk c covers
// [bounds[c], bounds[c+1]) — reusing the pool's persistent workers. Chunk 0
// runs on the calling goroutine. When the pool is nil, busy with another
// dispatch, closed, or the chunk count exceeds the worker fan-out, the call
// falls back to one fresh goroutine per extra chunk, so it always completes.
// This is the dispatch substrate for non-SpMV row-blocked work (SpGEMM,
// Galerkin products) that wants the same threads without new goroutines.
func (p *Pool[T]) RunChunks(bounds []int, fn func(chunk, lo, hi int)) {
	nchunks := len(bounds) - 1
	if nchunks <= 0 {
		return
	}
	if nchunks == 1 {
		fn(0, bounds[0], bounds[1])
		return
	}
	if p != nil && p.s.tryRunJob(bounds, fn) {
		return
	}
	spawnJobChunks(bounds, fn)
}

// tryRunJob is tryRun's generic-job twin: same ownership, wake, barrier and
// panic containment, with s.job carrying the closure instead of the SpMV
// quintuple.
func (s *poolState[T]) tryRunJob(bounds []int, fn func(chunk, lo, hi int)) bool {
	nchunks := len(bounds) - 1
	if !s.acquire(nchunks) {
		return false
	}
	defer s.release()
	s.job, s.bounds = fn, bounds
	s.wakeWorkers(nchunks - 1)
	fn(0, bounds[0], bounds[1])
	return true
}

// wakeWorkers arms the barrier for n worker chunks and hands them out:
// workers 0..n-1 get a new generation, and a wake token goes only to those
// that have parked. Workers past n keep their generation and stay idle.
//
//smat:wake-barrier
func (s *poolState[T]) wakeWorkers(n int) {
	s.waiting.Store(false)
	s.pending.Store(int32(n))
	for _, w := range s.slots[:n] {
		if g := w.gen.Add(1); w.parked.CompareAndSwap(g, 0) {
			w.wake <- struct{}{}
		}
	}
}

// barrierOpen snapshots the barrier: one load per call, so the polling
// loop in release takes a fresh snapshot each round.
func (s *poolState[T]) barrierOpen() bool { return s.pending.Load() == 0 }

// release waits until every worker chunk of the current dispatch has
// finished, drops the dispatch's references and unlocks the pool. It polls
// for about parkAfter, then parks on done. A done token can be stale — sent
// by the last worker of an earlier dispatch after that dispatcher had
// already seen the counter reach zero — so the loop re-checks the counter
// after every token instead of trusting it.
func (s *poolState[T]) release() {
	var idle idleClock
	for r := 1; !s.barrierOpen(); r++ {
		if r%spinRounds == 0 && idle.past(parkAfter) {
			break
		}
		runtime.Gosched()
	}
	for !s.barrierOpen() {
		s.waiting.Store(true)
		if s.barrierOpen() {
			break
		}
		<-s.done
	}
	s.fn, s.job, s.mat, s.x, s.y, s.bounds = nil, nil, nil, nil, nil, nil
	s.active.Store(false)
	s.mu.Unlock()
}

// dispatching snapshots whether a dispatch holds the pool.
func (s *poolState[T]) dispatching() bool { return s.active.Load() }

// spawnJobChunks is RunChunks' pool-less fallback: a goroutine per chunk
// beyond the caller's, joined on a WaitGroup.
func spawnJobChunks(bounds []int, fn func(chunk, lo, hi int)) {
	nchunks := len(bounds) - 1
	var wg sync.WaitGroup
	wg.Add(nchunks - 1)
	for t := 1; t < nchunks; t++ {
		go func(c, lo, hi int) {
			defer wg.Done()
			fn(c, lo, hi)
		}(t, bounds[t], bounds[t+1])
	}
	fn(0, bounds[0], bounds[1])
	wg.Wait()
}

// start launches the workers. It runs under mu on the first parallel
// dispatch, so pools that only ever see serial work cost no goroutines.
func (s *poolState[T]) start() {
	s.started = true
	s.slots = make([]*workerSlot, s.threads-1)
	for i := range s.slots {
		s.slots[i] = &workerSlot{wake: make(chan struct{}, 1)}
		go s.worker(i)
	}
}

// worker executes chunk i+1 of each dispatch that bumps its generation; the
// last worker to finish opens the dispatcher's barrier. The dispatch fields
// are written before the generation bump and read after observing it, and
// the dispatcher clears them only after the pending countdown reaches zero,
// so a worker never reads a half-written or recycled dispatch.
//
//smat:hotpath
//smat:wake-barrier
func (s *poolState[T]) worker(i int) {
	w := s.slots[i]
	var seen uint64
	for {
		g, ok := s.wait(w, seen)
		if !ok {
			return
		}
		seen = g
		lo, hi := s.bounds[i+1], s.bounds[i+2]
		if job := s.job; job != nil {
			job(i+1, lo, hi)
		} else {
			s.fn(s.mat, s.x, s.y, s.k, lo, hi)
		}
		if s.pending.Add(-1) == 0 && s.waiting.CompareAndSwap(true, false) {
			select {
			case s.done <- struct{}{}:
			default: // a stale token is still buffered; it wakes the dispatcher just as well
			}
		}
	}
}

// wait blocks worker slot w until its generation moves past seen and
// returns the new generation, or returns false once the pool stops. It
// polls for about parkAfter, and on while a dispatch holds the pool, then
// parks: it publishes parked (tagged seen+1), re-checks the generation (a
// dispatch may have landed in between), and sleeps on the wake channel.
// Stop is only observed while parked; a closed pool never dispatches
// again, so a polling worker reaches the park within the window.
//
//smat:hotpath
func (s *poolState[T]) wait(w *workerSlot, seen uint64) (uint64, bool) {
	var idle idleClock
	for r := 1; ; r++ {
		if g := w.generation(); g != seen {
			return g, true
		}
		if r%spinRounds == 0 && idle.past(parkAfter) && !s.dispatching() {
			break
		}
		runtime.Gosched()
	}
	w.parked.Store(seen + 1)
	if g := w.generation(); g != seen {
		if !w.parked.CompareAndSwap(seen+1, 0) {
			<-w.wake // the dispatcher claimed the park first: take its token
		}
		return g, true
	}
	select {
	case <-s.stop:
		return 0, false
	case <-w.wake:
		return w.generation(), true
	}
}

// idleClock times a poll. Its first past call, made after spinRounds
// rounds, starts the clock, so a poll that ends sooner never reads it and
// the window is spinRounds rounds plus the given duration.
type idleClock struct{ since time.Time }

// past reports whether d has passed since the first call.
func (c *idleClock) past(d time.Duration) bool {
	now := time.Now()
	if c.since.IsZero() {
		c.since = now
		return false
	}
	return now.Sub(c.since) >= d
}

// spawnChunks is the pool-less dispatch: one fresh goroutine per chunk
// beyond the caller's, joined on a WaitGroup — the pre-engine execution
// path, kept for Kernel.Run and as the overflow path when the pool is busy.
func spawnChunks[T matrix.Float](bounds []int, fn rangeFn[T], m *Mat[T], x, y []T, k int) {
	nchunks := len(bounds) - 1
	var wg sync.WaitGroup
	wg.Add(nchunks - 1)
	for t := 1; t < nchunks; t++ {
		go func(lo, hi int) {
			defer wg.Done()
			fn(m, x, y, k, lo, hi)
		}(bounds[t], bounds[t+1])
	}
	fn(m, x, y, k, bounds[0], bounds[1])
	wg.Wait()
}
