// Package sim implements a deterministic, sequential discrete-event
// simulation kernel with cooperative processes.
//
// The kernel advances virtual time by executing events from a priority
// queue. Exactly one thing runs at a time: either an event callback or one
// process. Processes hand control back to the kernel whenever they block
// (Wait, Await, ...), so all executions are serialized and the whole
// simulation is reproducible — same inputs, same event order, same results.
//
// Two execution contexts exist:
//
//   - Event context: callbacks scheduled with At/AtCall run inline in
//     the kernel loop. They must not block. Protocol handlers (message
//     deliveries) run in this context.
//   - Process context: bodies started with Spawn, each on a coroutine of its
//     own. They may block on futures and timed waits. Application programs
//     (one per simulated processor) run in this context.
//
// Time is measured in microseconds (float64); ties are broken by schedule
// order, which makes runs deterministic.
//
// # The event queue
//
// The event queue is the hottest data structure of the whole simulator, so
// it avoids container/heap entirely. Events live unboxed in plain []event
// arrays; a queue entry is 32 bytes — timestamp, sequence, and either the
// *Proc to wake (the most frequent event, inline) or a slot index into a
// recycled payload table holding the callback and its argument — and the hot
// paths (proc wakeups, message deliveries) schedule with zero
// allocations.
//
// It is one ladder/calendar queue (ladder.go) for every event — process
// wake-ups, callbacks and timers, at the current time or later — with three
// nested tiers: a sorted "front" (the current epoch, popped by index
// increment — O(1)), a stack of rungs whose equal-width buckets partition
// successive time intervals (each deeper rung refines one bucket of its
// parent), and an unsorted far-future tail. Every event is appended O(1)
// into its tier and participates in exactly one small sort when its
// bucket becomes the front, so the amortized cost per event is constant
// where a heap pays O(log n) sift traffic per push and pop
// (BenchmarkKernelQueue*: flat ns/op from 256 to 65536 standing events,
// 2.5-3x over the heap). Its exactness invariants:
//
//   - the tiers partition time with canonical bucket-edge comparisons
//     (edge(i) = start + width*i, the same expression on every path), so
//     floating-point rounding can never place an event on the wrong side
//     of a boundary: front < rungs[deepest] < ... < rungs[0] < tail;
//   - the front is refilled only when empty, from the next nonempty
//     bucket of the deepest rung (sorted by (t, seq), oversized buckets
//     spread into a child rung first) or by converting the tail — by the
//     partition invariant the refill holds exactly the globally smallest
//     remaining events;
//   - pushes below the front's bound insert in sorted position; a front
//     grown past a small cap spills into a fresh deepest rung, so sorted
//     insertion cost stays bounded;
//   - ties are broken by the globally monotone sequence number
//     everywhere, so pop order is the strict (t, seq) order.
//
// An event at the current time is younger than every queued event of its
// timestamp, so it lands just behind them in the front. Timers (TimerAt,
// timer.go) are callback events; CancelTimer revokes one by clearing its
// payload slot, and the entry stays queued, dead. The dead-entry rule: the
// queue drops a dead entry and recycles its slot when it materializes the
// entry's bucket or tail into an epoch, or when it pops it, so the loop
// only ever receives live events — a canceled timer advances no clock,
// counts nothing, folds nothing into the fingerprint and ticks no
// cancellation counter — and Pending counts live events only. The loop is
// the one place that advances the clock, counts, folds the fingerprint,
// polls cancellation and dispatches.
//
// A 4-ary min-heap (heapq_test.go) is the test-only reference: randomized
// and fuzzed (t, seq) workloads must pop byte-identically from it and the
// ladder (ladder_test.go), and random kernel workloads — events at now and
// later, process wake-ups, timers canceled from callbacks — must execute in
// its order with the same event count, fingerprint and Pending count
// (order_test.go).
//
// # Storage
//
// The kernel has one storage layer for events, evStore (store.go). Every
// []event it queues on — front, tail and rung buckets of the ladder, the
// epoch-sort scratch — is a slab: capacity a power of two from 8 events
// (256 bytes) up to 2^20, one free list per size class. A request beyond
// the largest class is allocated exactly and not kept. The callback payload
// table and its free stack, the scratch of a rung spawn and retired rung
// structs belong to the same store. Timers live there like any event: a
// ladder entry and a payload slot, which a canceled timer holds until its
// entry pops. The kernel keeps only a generation per slot a timer was ever
// armed on, for TimerID; a kernel that never arms one keeps none.
//
// A slab has one owner at a time. A tier takes one with get (or grow, which
// moves its events to the next class and puts the old slab back) when it
// receives its first event, and gives it back with put the moment its
// events are consumed: the front's slab when the next epoch is swapped in,
// a bucket's when it is spread into a child rung, the tail's when it is
// converted. An empty bucket holds nothing, so a retired rung is a bare
// struct. The push fast path is a plain in-capacity append; the store is
// touched only when a slab is full. The sorted front is consumed from its
// head and extended at its end, so its live window — at most a few dozen
// events — slides through the slab; when it reaches the end it is moved
// back to the start if half the slab is consumed space, and only otherwise
// does the slab grow. In steady state a run allocates nothing
// (TestLadderSteadyStateZeroAlloc).
//
// When Run returns with no event pending, the store outlives its use: the
// queue gives up its last slabs, dead entries and all, and the whole set — free
// lists, payload table, scratch, rungs — is handed to a process-wide stock,
// from which the next kernel takes it at its first slab request, so a fork
// or a fresh figure cell starts on warm storage. Payload slots an event
// took before that first request move into the adopted table. A run that
// ended with events pending (cancellation, deadlock) keeps its store,
// and a kernel that runs again after a hand-over adopts afresh. Storage
// never decides
// order — bucket membership and sorts read (t, seq) only — so a run is
// bit-identical whatever set it found.
//
// Before a set enters the stock it is trimmed and scrubbed. Trimmed: at
// most 8 MiB a set, largest slabs dropped first, and at most 4 sets wait,
// so the stock keeps a constant 32 MiB at most; a set released while the
// stock is full pushes out the oldest. Scrubbed: stale events in consumed
// slabs still name their *Proc, and used payload slots their callback and
// argument, so every slab handed out since the last scrub (a low-water
// mark per class tells which) and every used payload slot is cleared — a
// finished machine is collectable while its slabs live on
// (TestReleasedStoreIsCleared). StoreStats reports sets and bytes
// resident, adoptions, and the slab hits and misses of the kernels that
// have handed over; /v1/healthz shows them as kernel_store_*.
//
// The stock is one Shelf (shelf.go): a mutex-guarded, bounded array of
// sets, not a sync.Pool — a pool drops what two collections found unused
// (a figure cell collects many times while it runs, so the next would
// start cold) and cannot bound what it holds. The layers above the kernel
// hand their run-transient storage over through shelves of the same type,
// at the same moment and under the same rule: core.Machine.Run, when the
// kernel's Run returned with nothing pending, gives the network's message
// pool, free receiver records, replay journal and start times
// (mesh/spare.go) and the strategy's transaction records
// (core.TxnArena); each is adopted by the
// next network or arena at its first need, and a canceled or deadlocked
// run keeps it. Storage shaped by the machine carries a shape key — an
// access-tree record's path buffer holds 2·MaxDepth+1 nodes — and goes
// only to a machine of the same key. What snapshots capture never leaves
// its machine: variables, their protocol state and node tables, inbox
// queues, reactive channels, Barnes-Hut values. A shelf's sets hold no
// reference to the machine that used them: messages and records are
// cleared when freed. The snapshot store keeps its file buffers on a shelf
// of the same type. RunStoreStats sums those shelves; /v1/healthz shows
// them as run_store_*, and DropSpares empties every shelf.
//
// # Process switches
//
// A process body runs on a worker (worker.go): a coroutine made by iter.Pull,
// a goroutine with its own stack that the runtime switches to and from
// directly — no run queue, channel or futex on the way, the same cost
// whatever GOMAXPROCS is. So Run pins nothing and kernels run side by side.
//
// The goroutine that called Run is the driver.
// It executes the loop; when it pops the wake-up of a process it resumes that
// process's worker and is suspended until the worker yields. A process that
// parks (Wait, Await, ...) does not yield at once: it executes the loop
// itself, inside park, until it pops a process wake-up. Its own — park
// returns with no switch at all, the common case of a timed Wait with
// nothing in between. Another's — it names that process in Kernel.to and
// yields, and the driver resumes the one named: a coroutine can only yield
// to whoever resumed it, so a switch between two processes is two coroutine
// switches through the driver. Hence the parked process keeps driving:
// yielding at every park would pay both switches per park, where now the
// callbacks between two wake-ups run on a stack that is already hot.
//
//	SPAWNED --(driver pops first wakeup: binds a worker, resumes)--> RUNNING
//	RUNNING --(park: Wait/WaitUntil/Await)-------------------------> DRIVING
//	DRIVING --(pops own wakeup)------------------------------------> RUNNING  (no switch)
//	DRIVING --(pops another's wakeup: names it, yields)------------> PARKED
//	DRIVING --(nothing left to run: yields)------------------------> PARKED
//	DRIVING --(event it ran killed it: unwinds, worker exits)------> DONE
//	PARKED  --(driver resumes it: own wakeup popped elsewhere)-----> RUNNING
//	PARKED  --(kill: unwinds on its own worker, worker exits)------> DONE
//	SPAWNED --(kill: never had a worker)---------------------------> DONE
//	RUNNING --(body returns: worker yields, driver shelves it)-----> DONE
//
// Until its first wake-up pops a process is a record and a kick-off event, so
// a kernel that is spawned on and dropped holds no goroutine. A worker whose
// body returned goes to a process-wide, mutex-guarded stock and the next
// first wake-up on any kernel takes it: a warm run starts no goroutine and
// allocates nothing per process. The worker keeps its stack, so a body does
// not grow one by copying run after run (the collector halves a stack used
// to less than a quarter, so a worker idle for long ends on the minimum). An
// idle worker is not free — every collection visits it and is paced by its
// stack's size — so the stock holds at most maxIdleWorkers, 2 048: two
// machines of the largest figure mesh. A worker finishing beyond that exits;
// DropIdleWorkers ends them all; ProcStats and /v1/healthz (proc_pool_*,
// proc_switches) report the stock and the switches of finished runs.
//
// One goroutine per kernel executes at a time: resuming suspends the resumer,
// yielding the yielder, and iter.Pull orders both sides of every switch (race
// detector included). Coroutines add one restriction: a worker cannot move
// between a goroutine locked to its OS thread and another, so Run must not
// be called under runtime.LockOSThread.
//
// Killing a process (Shutdown; the cleanup after a deadlock, a cancellation
// or a panic) marks it done. A parked one is stopped: resumed with its yield
// reporting false, it unwinds on its own worker — deferred calls run — and
// the worker exits before kill returns, never to be shelved. The process
// that is executing, having run the callback that kills it, unwinds when the
// callback returns. A wakeup still queued for a killed process is skipped
// when it pops, but folded into the Fingerprint like every popped event. A
// body's own panic travels through iter.Pull to the driver and leaves Run
// with its value, the parked processes unwound first.

package sim
