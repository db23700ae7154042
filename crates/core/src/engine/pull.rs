//! Edge-Pull: the inner-loop-parallel, vectorized pull engine.
//!
//! This is where both of the paper's contributions meet. The iteration
//! space is the VSD edge-vector array — a *single-level* loop over vectors
//! (paper Listing 7) in which outer-loop (destination) transitions are
//! detected from the vectors' embedded top-level-vertex ids. Three interface
//! modes parallelize that loop:
//!
//! * [`PullMode::SchedulerAware`] — the paper's contribution, [`edge_pull`]:
//!   partial aggregates live in chunk-local state; interior destination
//!   transitions issue one plain store; the chunk's trailing partial goes
//!   to the merge buffer slot owned by the chunk; a sequential merge pass
//!   folds the buffer afterwards. Zero synchronization. It runs over a
//!   [`PullSpace`] — the full vector array or the frontier-aware compacted
//!   active-vector list (DESIGN.md §11) — with optional per-chunk
//!   [`Containment`] (retry, watchdog, sequential degrade; DESIGN.md §9).
//! * [`PullMode::Traditional`] — each vector's aggregate is combined into
//!   the destination's shared accumulator with a CAS loop. One synchronized
//!   shared-memory update per iteration; the paper's baseline
//!   ([`edge_pull_traditional`]).
//! * [`PullMode::TraditionalNoAtomic`] — same traffic, no synchronization
//!   (racy by design; isolates write-traffic cost from synchronization
//!   cost, as in Figures 5 and 8).

use crate::config::{EngineConfig, Granularity, PullMode, SchedKind};
use crate::faults::ExecInjector;
use crate::frontier::{DenseBitmap, Frontier};
use crate::program::AggOp;
use crate::properties::PropertyArray;
use crate::spmv::{frontier_lane_mask, scatter_combine, EdgeKernel};
use crate::stats::Profiler;
use crate::trace::{Deadline, SpanClock};
use grazelle_graph::partition::{partition_index, EdgePartition};
use grazelle_sched::aware::ChunkAware;
use grazelle_sched::chunks::{ChunkScheduler, ChunkSource, DEFAULT_CHUNKS_PER_THREAD};
use grazelle_sched::pool::{group_range, ThreadPool, WorkerCtx};
use grazelle_sched::slots::SlotBuffer;
use grazelle_sched::stealing::LocalityScheduler;
use grazelle_vsparse::active::ActiveVectorList;
use grazelle_vsparse::build::{Vsd, Vss};
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// One merge-buffer slot: the chunk's last destination and its
/// partially-aggregated value (paper Listing 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergeEntry {
    /// `lastDest`.
    pub dest: u64,
    /// `lastValue`.
    pub value: f64,
}

/// The scheduler-aware pull loop (paper Listings 3–5), generic over the
/// Edge-phase kernel: the loop owns scheduling, destination transitions,
/// and the §3 write discipline; the kernel owns only the masked per-vector
/// aggregation ([`EdgeKernel::gather4`]).
struct AwarePull<'a, K: EdgeKernel> {
    vsd: &'a Vsd,
    kernel: &'a K,
    frontier: &'a Frontier,
    merge: &'a SlotBuffer<MergeEntry>,
    prof: &'a Profiler,
    /// `Some` when chunk ranges are positions in the compacted space.
    active: Option<&'a ActiveVectorList>,
    // Cached kernel facets — hoisted out of the per-vector loop.
    op: AggOp,
    accum: &'a PropertyArray,
    conv: Option<&'a DenseBitmap>,
}

/// Chunk-local state: the paper's TLS variables plus instrumentation.
struct AwareState {
    prev_dest: u64,
    partial: f64,
    direct_stores: u64,
    started: SpanClock,
    /// Interior-store audit records, buffered until the chunk *commits* in
    /// `finish_chunk`. A chunk abandoned mid-flight (worker panic under
    /// containment) drops its state and therefore its records, so the
    /// retry that re-executes it reports each interior store exactly once.
    #[cfg(feature = "invariant-checks")]
    interior_stores: Vec<usize>,
}

impl<K: EdgeKernel> ChunkAware for AwarePull<'_, K> {
    type State = AwareState;

    fn start_chunk(&self, _ctx: &WorkerCtx, _chunk: usize, first: usize) -> AwareState {
        AwareState {
            prev_dest: self.vsd.vectors()[first].top_level_vertex(),
            partial: self.op.identity(),
            direct_stores: 0,
            started: SpanClock::start(),
            #[cfg(feature = "invariant-checks")]
            interior_stores: Vec::new(),
        }
    }

    #[inline]
    fn loop_iteration(&self, _ctx: &WorkerCtx, st: &mut AwareState, i: usize) {
        let ev = &self.vsd.vectors()[i];
        let dst = ev.top_level_vertex();
        if dst != st.prev_dest {
            // Interior transition: this chunk owns the previous
            // destination's trailing vectors, so an unsynchronized store is
            // safe (paper Listing 4). Accumulators were reset to the
            // identity, so the store *is* the combine.
            // DISJOINT: interior-owned — audited by the shadow write-tracker
            self.accum.set_f64(st.prev_dest as usize, st.partial);
            #[cfg(feature = "invariant-checks")]
            if self.prof.tracker.is_some() {
                st.interior_stores.push(st.prev_dest as usize);
            }
            st.direct_stores += 1;
            st.prev_dest = dst;
            st.partial = self.op.identity();
        }
        if let Some(conv) = self.conv {
            if conv.contains(dst as u32) {
                return; // destination ignores all in-bound messages
            }
        }
        let mask = frontier_lane_mask(self.frontier, ev);
        if mask == 0 {
            return;
        }
        // SAFETY: the kernel validated coverage of this structure's vertex
        // ids at construction (see the `EdgeKernel` safety contract).
        let contrib = unsafe { self.kernel.gather4(ev, i, mask) };
        st.partial = self.op.combine(st.partial, contrib);
    }

    fn finish_chunk(&self, _ctx: &WorkerCtx, st: AwareState, chunk: usize, _last: usize) {
        #[cfg(feature = "invariant-checks")]
        if let Some(t) = self.prof.tracker.as_ref() {
            // The chunk commits: flush the buffered interior-store records
            // and claim the merge slot in one place, so an abandoned chunk
            // contributes nothing to the audit.
            for &v in &st.interior_stores {
                t.record_interior_store(v, _ctx.global_id);
            }
            t.record_slot_claim(chunk, _ctx.global_id);
        }
        // SAFETY: the chunk scheduler hands out each chunk id exactly once,
        // so this thread is slot `chunk`'s unique writer this round.
        unsafe {
            self.merge.write(
                chunk,
                MergeEntry {
                    dest: st.prev_dest,
                    value: st.partial,
                },
            )
        };
        // ATOMIC: relaxed-counter
        self.prof
            .work_ns
            .fetch_add(st.started.elapsed_ns(), Ordering::Relaxed);
        // ATOMIC: relaxed-counter
        self.prof
            .direct_stores
            .fetch_add(st.direct_stores, Ordering::Relaxed);
    }
}

impl<K: EdgeKernel> AwarePull<'_, K> {
    /// Processes one non-empty chunk end-to-end through the scheduler-aware
    /// interface: `start_chunk` → `loop_iteration`* → `finish_chunk`. `gid`
    /// is the chunk's globally unique id (= merge-buffer slot).
    ///
    /// Over the compacted space `range` holds positions in the active
    /// vector list, which resolve to strictly ascending real VSD indices
    /// whose destination runs stay contiguous — so the §3 transition logic
    /// is unchanged: a range gap is just another destination transition.
    #[inline]
    fn run_chunk(&self, ctx: &WorkerCtx, gid: usize, range: Range<usize>) {
        match self.active {
            None => {
                let last = range.end - 1;
                let mut state = self.start_chunk(ctx, gid, range.start);
                for i in range {
                    self.loop_iteration(ctx, &mut state, i);
                }
                self.finish_chunk(ctx, state, gid, last);
            }
            Some(active) => {
                let mut it = active.real_indices(range);
                let Some(first) = it.next() else {
                    return;
                };
                let mut state = self.start_chunk(ctx, gid, first);
                self.loop_iteration(ctx, &mut state, first);
                let mut last = first;
                for i in it {
                    self.loop_iteration(ctx, &mut state, i);
                    last = i;
                }
                self.finish_chunk(ctx, state, gid, last);
            }
        }
    }

    /// One contained attempt at a chunk; `false` (and a counted panic) when
    /// it panicked.
    fn attempt(
        &self,
        ctx: &WorkerCtx,
        gid: usize,
        range: Range<usize>,
        injector: Option<&ExecInjector>,
    ) -> bool {
        // RECOVERY: a chunk that panics mid-flight has written nothing
        // another thread depends on — its merge slot is only claimed at
        // commit time in `finish_chunk`, and any interior stores it issued
        // are plain overwrites of destinations it exclusively owns, which
        // the retry repeats identically. The chunk's range (full-array
        // indices or compacted positions) identifies its work exactly.
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if let Some(inj) = injector {
                inj.maybe_panic_chunk(gid);
            }
            self.run_chunk(ctx, gid, range);
        }));
        if outcome.is_err() {
            self.prof.chunk_panics.fetch_add(1, Ordering::Relaxed); // ATOMIC: relaxed-counter
        }
        outcome.is_ok()
    }

    /// The contained parallel drive (DESIGN.md §9): per-chunk panic
    /// isolation, driver-thread retry of failed chunks, and a cooperative
    /// watchdog tested between chunks — a blown deadline is detected at the
    /// next chunk boundary (or after the pool joins) rather than preempting
    /// a stuck thread mid-chunk. Returns `Degraded` when the retry budget
    /// ran out and the phase must still be redone sequentially.
    fn run_contained(
        &self,
        pool: &ThreadPool,
        scheds: &EdgeSchedulers,
        c: &Containment<'_>,
    ) -> PullStatus {
        let failed: Mutex<Vec<(usize, Range<usize>)>> = Mutex::new(Vec::new());
        let timed_out = AtomicBool::new(false);
        let pool_ok = pool
            .run_result(|ctx| {
                if let Some(inj) = c.injector {
                    inj.maybe_stall(ctx.global_id);
                }
                loop {
                    if c.deadline.is_some_and(|dl| dl.expired()) {
                        timed_out.store(true, Ordering::Relaxed); // ATOMIC: relaxed-flag
                        return;
                    }
                    let Some((gid, range)) = scheds.next_chunk(ctx) else {
                        break;
                    };
                    if range.is_empty() {
                        continue;
                    }
                    // Catching in `attempt` keeps the worker alive to drain
                    // the rest of the queue; the failed chunk is queued for
                    // the driver thread to retry.
                    if !self.attempt(ctx, gid, range.clone(), c.injector) {
                        failed
                            .lock()
                            .expect("failed-chunk list lock poisoned")
                            .push((gid, range));
                    }
                }
            })
            .is_ok();

        // ATOMIC: relaxed-flag — cooperative timeout; late observation only
        // delays the verdict by one chunk
        if timed_out.load(Ordering::Relaxed) || c.deadline.is_some_and(|dl| dl.expired()) {
            return PullStatus::Stalled;
        }
        if !pool_ok {
            // A worker died outside the per-chunk containment (e.g. in the
            // scheduler itself): its unclaimed chunks are unknowable, so go
            // straight to the degrade path, which redoes the whole phase.
            return PullStatus::Degraded;
        }
        // Retry failed chunks on this (surviving) thread, in order.
        let failed = failed
            .into_inner()
            .expect("failed-chunk list lock poisoned");
        let retry_ctx = WorkerCtx {
            global_id: 0,
            group_id: 0,
            local_id: 0,
            num_threads: pool.num_threads(),
            num_groups: pool.num_groups(),
        };
        let mut exhausted = false;
        'chunks: for (gid, range) in failed {
            let mut attempts = 0;
            loop {
                if c.deadline.is_some_and(|dl| dl.expired()) {
                    break 'chunks; // verdict below re-tests the deadline
                }
                if attempts >= c.max_chunk_retries {
                    exhausted = true;
                    break 'chunks;
                }
                attempts += 1;
                self.prof.chunk_retries.fetch_add(1, Ordering::Relaxed); // ATOMIC: relaxed-counter

                // RECOVERY: the retried chunk starts from `start_chunk`
                // state, so a clean attempt fully reproduces the lost work;
                // one that panics again still commits nothing and is simply
                // attempted again until the retry budget runs out.
                if self.attempt(&retry_ctx, gid, range.clone(), c.injector) {
                    break;
                }
            }
        }
        if c.deadline.is_some_and(|dl| dl.expired()) {
            PullStatus::Stalled
        } else if exhausted {
            PullStatus::Degraded
        } else {
            PullStatus::Completed
        }
    }
}

/// Edge-phase chunk sources for one iteration space. This is the one place
/// a configuration's [`Granularity`] × [`SchedKind`] becomes chunks.
///
/// Over the full VSD array the vector array is split into one contiguous,
/// vertex-aligned piece per thread group — the paper's NUMA partitioning
/// (§5, DESIGN.md §4.2) — and each group's threads claim chunks only from
/// their own piece. Over the compacted space one shared source serves every
/// worker. Chunk identifiers are globally unique so the merge buffer keeps
/// one slot per chunk across all groups.
pub struct EdgeSchedulers {
    parts: Vec<EdgePartition>,
    scheds: Vec<Box<dyn ChunkSource + Send + Sync>>,
    chunk_offsets: Vec<usize>,
    total_chunks: usize,
}

impl EdgeSchedulers {
    /// The full space: partitions `vsd`'s vector array for `pool`'s group
    /// topology, chunked per `cfg` (32 chunks per thread by default, per
    /// group; central queue or locality-first stealing).
    pub fn new(cfg: &EngineConfig, vsd: &Vsd, pool: &ThreadPool) -> Self {
        Self::build(cfg, partition_index(vsd.index(), pool.num_groups()), pool)
    }

    /// The compacted space of `active` (DESIGN.md §11): not
    /// NUMA-partitioned — one shared source over the list's positions,
    /// chunked per `cfg` for every thread of `pool`.
    pub fn active(cfg: &EngineConfig, active: &ActiveVectorList, pool: &ThreadPool) -> Self {
        Self::build(cfg, vec![Self::piece(active.total_vectors())], pool)
    }

    /// Single-group scheduler with an explicit chunk count (tests and
    /// direct engine users).
    pub fn single(num_vectors: usize, num_chunks: usize) -> Self {
        let sched = ChunkScheduler::new(num_vectors, num_chunks);
        EdgeSchedulers {
            parts: vec![Self::piece(num_vectors)],
            chunk_offsets: vec![0],
            total_chunks: sched.num_chunks(),
            scheds: vec![Box::new(sched)],
        }
    }

    /// One piece spanning `0..items` (vertex bounds unused by the pull
    /// engines).
    fn piece(items: usize) -> EdgePartition {
        EdgePartition {
            first_vertex: 0,
            last_vertex: 0,
            edge_start: 0,
            edge_end: items,
        }
    }

    fn build(cfg: &EngineConfig, parts: Vec<EdgePartition>, pool: &ThreadPool) -> Self {
        let groups = parts.len();
        let mut scheds: Vec<Box<dyn ChunkSource + Send + Sync>> = Vec::with_capacity(groups);
        let mut chunk_offsets = Vec::with_capacity(groups);
        let mut total = 0usize;
        for (g, p) in parts.iter().enumerate() {
            let items = p.num_edges(); // vectors (or positions) in this piece
            let threads = group_range(g, groups, pool.num_threads()).len().max(1);
            let chunks = match cfg.granularity {
                Granularity::Default32n => DEFAULT_CHUNKS_PER_THREAD * threads,
                Granularity::VectorsPerChunk(c) => items.div_ceil(c.max(1)).max(1),
            };
            let sched: Box<dyn ChunkSource + Send + Sync> = match cfg.sched_kind {
                SchedKind::Central => Box::new(ChunkScheduler::new(items, chunks)),
                SchedKind::LocalityStealing => {
                    Box::new(LocalityScheduler::new(items, chunks, threads))
                }
            };
            chunk_offsets.push(total);
            total += sched.num_chunks();
            scheds.push(sched);
        }
        EdgeSchedulers {
            parts,
            scheds,
            chunk_offsets,
            total_chunks: total,
        }
    }

    /// Total chunks across all groups (merge-buffer slots needed).
    pub fn total_chunks(&self) -> usize {
        self.total_chunks
    }

    /// Total items (vectors, or compacted positions) covered.
    pub fn num_items(&self) -> usize {
        self.parts.last().map_or(0, |p| p.edge_end)
    }

    /// Rewinds every group's scheduler for the next phase.
    pub fn reset(&self) {
        for s in &self.scheds {
            s.reset();
        }
    }

    /// Claims the next chunk for `ctx`: its global id and its item range.
    /// A single shared source is addressed by global thread id, per-group
    /// sources by the group-local id.
    #[inline]
    fn next_chunk(&self, ctx: &WorkerCtx) -> Option<(usize, Range<usize>)> {
        let (g, thread) = if self.scheds.len() == 1 {
            (0, ctx.global_id)
        } else {
            (ctx.group_id.min(self.scheds.len() - 1), ctx.local_id)
        };
        let chunk = self.scheds[g].next_chunk_for(thread)?;
        let base = self.parts[g].edge_start;
        Some((
            self.chunk_offsets[g] + chunk.id,
            base + chunk.range.start..base + chunk.range.end,
        ))
    }
}

/// The iteration space of one scheduler-aware Edge-Pull phase.
#[derive(Clone, Copy)]
pub enum PullSpace<'a> {
    /// The whole VSD vector array, chunked by [`EdgeSchedulers::new`] (or
    /// [`EdgeSchedulers::single`]).
    Full(&'a EdgeSchedulers),
    /// The frontier-aware compacted active-vector list (DESIGN.md §11),
    /// chunked by [`EdgeSchedulers::active`] over the same list.
    /// Bit-identical to the full space: destinations outside the list have
    /// no frontier-active in-neighbors, so the full pass would store only
    /// the operator identity they already hold.
    Active(&'a ActiveVectorList, &'a EdgeSchedulers),
}

/// Per-chunk fault containment for one Edge-Pull phase (DESIGN.md §9).
///
/// Only the scheduler-aware interface supports it — chunk retry is only
/// sound under its write discipline: a chunk that dies mid-flight has made
/// no commitment other than idempotent interior stores (plain overwrites of
/// destinations it exclusively owns), and its merge-buffer slot is written
/// only at commit time in `finish_chunk`, so re-executing the chunk on any
/// surviving thread reproduces the lost work exactly.
#[derive(Debug, Clone, Copy)]
pub struct Containment<'a> {
    /// Cooperative watchdog, tested between chunks. `None` disables it.
    pub deadline: Option<Deadline>,
    /// Driver-thread attempts per failed chunk before the phase degrades
    /// to the sequential scalar redo.
    pub max_chunk_retries: u32,
    /// Deterministic fault injector; `None` injects nothing.
    pub injector: Option<&'a ExecInjector>,
}

/// Outcome of an Edge-Pull phase ([`edge_pull`]). Without containment the
/// phase always completes (a worker panic propagates instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PullStatus {
    /// The phase completed through the parallel scheduler-aware path
    /// (possibly after per-chunk retries); accumulators are valid.
    Completed,
    /// The watchdog deadline expired. The phase was abandoned, the merge
    /// buffer cleared, and the accumulators hold partial garbage — the
    /// driver must surface `EngineError::Stalled`, not continue.
    Stalled,
    /// The chunk-retry budget was exhausted; the phase was re-executed from
    /// scratch on the sequential scalar path. Accumulators are valid.
    Degraded,
}

/// Runs one scheduler-aware Edge-Pull phase over `space`.
///
/// `merge` is grown to the space's chunk count as needed. With `contain`
/// set, a worker panic is contained to its chunk and retried on the driver
/// thread; when the retry budget runs out the phase is redone on the
/// sequential scalar path over the full array ([`PullStatus::Degraded`],
/// bit-identical to the parallel pass), and a blown watchdog abandons it
/// ([`PullStatus::Stalled`]). Without containment a worker panic
/// propagates through the pool.
#[allow(clippy::too_many_arguments)]
pub fn edge_pull<K: EdgeKernel>(
    vsd: &Vsd,
    kernel: &K,
    frontier: &Frontier,
    space: PullSpace<'_>,
    pool: &ThreadPool,
    merge: &mut SlotBuffer<MergeEntry>,
    prof: &Profiler,
    contain: Option<&Containment<'_>>,
) -> PullStatus {
    let (scheds, active) = match space {
        PullSpace::Full(s) => (s, None),
        PullSpace::Active(a, s) => (s, Some(a)),
    };
    let items = active.map_or(vsd.num_vectors(), |a| a.total_vectors());
    assert_eq!(
        scheds.num_items(),
        items,
        "scheduler/iteration-space mismatch"
    );
    let op = kernel.op();
    let wall = SpanClock::start();
    let work_before = prof.work_ns_now();
    scheds.reset();
    merge.ensure_len(scheds.total_chunks());
    #[cfg(feature = "invariant-checks")]
    if let Some(t) = prof.tracker.as_ref() {
        // On the Stalled/Degraded exits below this phase is simply left
        // open and never asserted; the next `begin_phase` discards it.
        t.begin_phase(vsd.num_vertices(), scheds.total_chunks());
        if let Some(a) = active {
            // Restrict the audit to the active destinations so it catches
            // any interior store outside the compacted subset.
            t.restrict_to_active(
                a.ranges()
                    .iter()
                    .flat_map(|r| r.clone())
                    .map(|i| vsd.vectors()[i].top_level_vertex() as usize),
            );
        }
    }

    // The parallel part's verdict; the `&mut` merge-buffer operations
    // (clear/fold) follow once the chunk processor's shared borrows end.
    let verdict = {
        let loop_ = AwarePull {
            vsd,
            kernel,
            frontier,
            merge,
            prof,
            active,
            op,
            accum: kernel.accumulators(),
            conv: kernel.converged(),
        };
        match contain {
            Some(c) => loop_.run_contained(pool, scheds, c),
            None => {
                // Group-partitioned drive: each worker claims chunks from
                // its own group's piece of the iteration space, processing
                // them through the scheduler-aware interface (paper
                // Figure 3).
                pool.run(|ctx| {
                    while let Some((gid, range)) = scheds.next_chunk(ctx) {
                        if !range.is_empty() {
                            loop_.run_chunk(ctx, gid, range);
                        }
                    }
                });
                PullStatus::Completed
            }
        }
    };

    let status = match verdict {
        PullStatus::Stalled => {
            merge.clear();
            return PullStatus::Stalled;
        }
        PullStatus::Degraded => {
            // Degrade: discard all partial state and redo the phase
            // sequentially over the *full* array (bit-identical to the
            // compacted pass — inactive destinations aggregate a zero lane
            // mask, i.e. the identity they hold). One plain store per
            // destination, no merge buffer, no other threads — trivially
            // exactly-once.
            merge.clear();
            prof.degraded_iterations.fetch_add(1, Ordering::Relaxed); // ATOMIC: relaxed-counter

            // DISJOINT: sequential-merge — degrade-path reset, single-threaded
            kernel
                .accumulators()
                .fill_range_f64(0..vsd.num_vertices(), op.identity());
            let deadline = contain.and_then(|c| c.deadline);
            let done = scalar_pull_pass(vsd, kernel, frontier, deadline, prof);
            // The phase ended sequential: charge idle from effective
            // parallelism 1 so the degraded pass doesn't report
            // `threads − 1` phantom idle threads (the abandoned parallel
            // attempt's imbalance is absorbed, which is the honest reading:
            // no thread was waiting during the scalar redo).
            prof.finish_edge_phase(wall.elapsed_ns(), 1, work_before);
            if done {
                PullStatus::Degraded
            } else {
                PullStatus::Stalled
            }
        }
        PullStatus::Completed => {
            prof.finish_edge_phase(wall.elapsed_ns(), pool.num_threads() as u64, work_before);
            merge_fold(kernel.accumulators(), op, merge, prof);
            // Audit the §3 contract for this Edge phase — it must hold even
            // after panics and retries: interior destinations stored exactly
            // once (abandoned chunks recorded nothing, retried chunks
            // exactly once), slots claimed by one thread, boundary partials
            // folded exactly once.
            #[cfg(feature = "invariant-checks")]
            if let Some(t) = prof.tracker.as_ref() {
                t.end_phase().assert_clean();
            }
            PullStatus::Completed
        }
    };
    let vectors = if status == PullStatus::Completed {
        items
    } else {
        vsd.num_vectors()
    };
    // ATOMIC: relaxed-counter
    prof.vectors_processed
        .fetch_add(vectors as u64, Ordering::Relaxed);
    status
}

/// The traditional-interface baseline (paper Figure 1): a stateless loop
/// that combines every vector's aggregate into the destination's shared
/// accumulator — with a CAS loop under [`PullMode::Traditional`], with an
/// unsynchronized read-modify-write under
/// [`PullMode::TraditionalNoAtomic`] (racy by design). `scheds` must cover
/// `0..vsd.num_vectors()`.
pub fn edge_pull_traditional<K: EdgeKernel>(
    vsd: &Vsd,
    kernel: &K,
    frontier: &Frontier,
    pool: &ThreadPool,
    scheds: &EdgeSchedulers,
    mode: PullMode,
    prof: &Profiler,
) {
    assert_eq!(
        scheds.num_items(),
        vsd.num_vectors(),
        "scheduler/VSD mismatch"
    );
    assert_ne!(
        mode,
        PullMode::SchedulerAware,
        "the scheduler-aware interface runs through `edge_pull`"
    );
    let atomic = mode == PullMode::Traditional;
    let op = kernel.op();
    let accum = kernel.accumulators();
    let conv = kernel.converged();
    let write_intense = kernel.write_intense();
    let wall = SpanClock::start();
    let work_before = prof.work_ns_now();
    scheds.reset();
    pool.run(|ctx| {
        let started = SpanClock::start();
        let mut updates = 0u64;
        while let Some((_, range)) = scheds.next_chunk(ctx) {
            for i in range {
                let ev = &vsd.vectors()[i];
                let dst = ev.top_level_vertex();
                if conv.is_some_and(|c| c.contains(dst as u32)) {
                    continue;
                }
                let mask = frontier_lane_mask(frontier, ev);
                if mask == 0 {
                    continue;
                }
                // SAFETY: coverage validated at kernel construction.
                let contrib = unsafe { kernel.gather4(ev, i, mask) };
                updates += 1;
                if atomic {
                    scatter_combine(op, write_intense, accum, dst as usize, contrib);
                } else {
                    accum.combine_nonatomic_f64(dst as usize, contrib, |a, b| op.combine(a, b));
                }
            }
        }
        // ATOMIC: relaxed-counter
        prof.work_ns
            .fetch_add(started.elapsed_ns(), Ordering::Relaxed);
        let counter = if atomic {
            &prof.atomic_updates
        } else {
            &prof.nonatomic_updates
        };
        counter.fetch_add(updates, Ordering::Relaxed); // ATOMIC: relaxed-counter
    });
    prof.finish_edge_phase(wall.elapsed_ns(), pool.num_threads() as u64, work_before);
    // ATOMIC: relaxed-counter
    prof.vectors_processed
        .fetch_add(vsd.num_vectors() as u64, Ordering::Relaxed);
}

/// Builds the per-iteration active vector list for the frontier-aware pull
/// path (DESIGN.md §11): a destination is *active* when at least one of its
/// in-neighbors is in the frontier (found by scanning the frontier-active
/// sources' out-edges in the VSS orientation) and it has not converged.
/// O(sum of active sources' out-degrees + |V|/64), independent of the full
/// edge array.
pub fn active_vector_list(
    vsd: &Vsd,
    vss: &Vss,
    frontier: &Frontier,
    converged: Option<&DenseBitmap>,
) -> ActiveVectorList {
    let n = vsd.num_vertices();
    let mut dest_bits = vec![0u64; n.div_ceil(64)];
    let mut mark_out_neighbors = |s: u32| {
        for i in vss.vector_range(s) {
            for nb in vss.vectors()[i].valid_neighbors() {
                dest_bits[nb as usize / 64] |= 1 << (nb % 64);
            }
        }
    };
    match frontier {
        Frontier::All { .. } => dest_bits.fill(!0),
        Frontier::Dense(bm) => bm.iter().for_each(&mut mark_out_neighbors),
        Frontier::Sparse { vertices, .. } => {
            vertices.iter().copied().for_each(&mut mark_out_neighbors)
        }
    }
    if let Some(c) = converged {
        for (w, cw) in dest_bits.iter_mut().zip(c.words()) {
            // ATOMIC: relaxed-cell — converged-bitmap snapshot between phases
            *w &= !cw.load(Ordering::Relaxed);
        }
    }
    let active = dest_bits.iter().enumerate().flat_map(|(wi, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            if w == 0 {
                return None;
            }
            let bit = w.trailing_zeros() as u64;
            w &= w - 1;
            Some(wi as u64 * 64 + bit)
        })
        .filter(|&v| v < n as u64)
    });
    ActiveVectorList::from_active(vsd.index(), active)
}

/// The sequential merge pass (paper Listing 6): folds every boundary
/// partial in the merge buffer into its destination accumulator. "Executes
/// sequentially in our implementation because it is extremely fast."
pub(crate) fn merge_fold(
    accum: &PropertyArray,
    op: AggOp,
    merge: &mut SlotBuffer<MergeEntry>,
    prof: &Profiler,
) {
    let merge_start = SpanClock::start();
    let identity = op.identity();
    let mut entries = 0u64;
    for (_chunk, e) in merge.drain() {
        #[cfg(feature = "invariant-checks")]
        if let Some(t) = prof.tracker.as_ref() {
            t.record_fold(_chunk);
        }
        if e.value != identity || (op == AggOp::Sum && e.value.to_bits() != 0) {
            let cur = accum.get_f64(e.dest as usize);
            // DISJOINT: sequential-merge — the fold runs single-threaded
            accum.set_f64(e.dest as usize, op.combine(cur, e.value));
            entries += 1;
        }
    }
    prof.merge_entries.fetch_add(entries, Ordering::Relaxed); // ATOMIC: relaxed-counter
                                                              // ATOMIC: relaxed-counter
    prof.merge_ns
        .fetch_add(merge_start.elapsed_ns(), Ordering::Relaxed);
}

/// The degrade path: one sequential pass over the whole VSD array with the
/// same per-vector semantics as [`AwarePull`], writing each destination's
/// aggregate with a single plain store. Used when the parallel path cannot
/// make progress (retry budget exhausted) and as the Edge-Push fallback.
/// Accumulators must hold the operator identity on entry. Returns `false`
/// if `deadline` expired mid-pass (checked every 4096 vectors). The pass's
/// time counts as Edge-phase *work* (at parallelism 1); the caller owns
/// the phase's wall/idle accounting.
pub(crate) fn scalar_pull_pass<K: EdgeKernel>(
    vsd: &Vsd,
    kernel: &K,
    frontier: &Frontier,
    deadline: Option<Deadline>,
    prof: &Profiler,
) -> bool {
    let vectors = vsd.vectors();
    if vectors.is_empty() {
        return true;
    }
    let started = SpanClock::start();
    let op = kernel.op();
    let accum = kernel.accumulators();
    let conv = kernel.converged();
    let mut prev_dest = vectors[0].top_level_vertex();
    let mut partial = op.identity();
    for (i, ev) in vectors.iter().enumerate() {
        if i % 4096 == 0 && deadline.is_some_and(|dl| dl.expired()) {
            // ATOMIC: relaxed-counter
            prof.work_ns
                .fetch_add(started.elapsed_ns(), Ordering::Relaxed);
            return false;
        }
        let dst = ev.top_level_vertex();
        if dst != prev_dest {
            // DISJOINT: sequential-merge — scalar pass, single-threaded
            accum.set_f64(prev_dest as usize, partial);
            prev_dest = dst;
            partial = op.identity();
        }
        if let Some(c) = conv {
            if c.contains(dst as u32) {
                continue;
            }
        }
        let mask = frontier_lane_mask(frontier, ev);
        if mask == 0 {
            continue;
        }
        // SAFETY: coverage validated at kernel construction.
        let contrib = unsafe { kernel.gather4(ev, i, mask) };
        partial = op.combine(partial, contrib);
    }
    // DISJOINT: sequential-merge — scalar pass, single-threaded
    accum.set_f64(prev_dest as usize, partial);
    // ATOMIC: relaxed-counter
    prof.work_ns
        .fetch_add(started.elapsed_ns(), Ordering::Relaxed);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::ExecFaultPlan;
    use crate::program::GraphProgram;
    use crate::spmv::program_kernel;
    use grazelle_graph::edgelist::EdgeList;
    use grazelle_graph::graph::Graph;
    use grazelle_vsparse::build::VectorSparse;
    use grazelle_vsparse::simd::{Kernels, SimdLevel};

    struct SumProg {
        vals: PropertyArray,
        acc: PropertyArray,
        n: usize,
    }
    impl GraphProgram for SumProg {
        fn num_vertices(&self) -> usize {
            self.n
        }
        fn op(&self) -> AggOp {
            AggOp::Sum
        }
        fn edge_values(&self) -> &PropertyArray {
            &self.vals
        }
        fn accumulators(&self) -> &PropertyArray {
            &self.acc
        }
        fn apply(&self, _v: u32) -> bool {
            false
        }
        fn uses_frontier(&self) -> bool {
            false
        }
    }

    fn star_plus_chain(n: usize) -> Graph {
        // Vertex 0 receives an edge from every other vertex (hub), plus a
        // chain i -> i+1 to create many distinct destinations.
        let mut el = EdgeList::new(n);
        for v in 1..n as u32 {
            el.push(v, 0).unwrap();
        }
        for v in 0..(n - 1) as u32 {
            el.push(v, v + 1).unwrap();
        }
        Graph::from_edgelist(&el).unwrap()
    }

    fn expected_in_sums(g: &Graph, vals: &[f64]) -> Vec<f64> {
        (0..g.num_vertices() as u32)
            .map(|v| g.in_neighbors(v).iter().map(|&s| vals[s as usize]).sum())
            .collect()
    }

    fn run_mode(mode: PullMode, simd: SimdLevel, threads: usize, chunks: usize) {
        let g = star_plus_chain(97);
        let vsd = VectorSparse::from_csr(g.in_csr());
        let n = g.num_vertices();
        let vals = PropertyArray::new(n);
        for v in 0..n {
            vals.set_f64(v, (v % 13) as f64 + 0.5);
        }
        let prog = SumProg {
            vals,
            acc: PropertyArray::filled_f64(n, 0.0),
            n,
        };
        let pool = ThreadPool::single_group(threads);
        let sched = EdgeSchedulers::single(vsd.num_vectors(), chunks);
        let mut merge = SlotBuffer::new(sched.total_chunks());
        let prof = Profiler::new();
        let frontier = Frontier::all(n);
        let kern = program_kernel(&prog, &vsd, Kernels::with_level(simd));
        if mode == PullMode::SchedulerAware {
            let space = PullSpace::Full(&sched);
            edge_pull(
                &vsd, &kern, &frontier, space, &pool, &mut merge, &prof, None,
            );
        } else {
            edge_pull_traditional(&vsd, &kern, &frontier, &pool, &sched, mode, &prof);
        }
        let expect = expected_in_sums(&g, &prog.vals.to_vec_f64());
        for (v, want) in expect.iter().enumerate() {
            assert!(
                (prog.acc.get_f64(v) - want).abs() < 1e-9,
                "{mode:?}/{simd:?} vertex {v}: got {} want {}",
                prog.acc.get_f64(v),
                want
            );
        }
    }

    #[test]
    fn scheduler_aware_scalar_matches_reference() {
        run_mode(PullMode::SchedulerAware, SimdLevel::Scalar, 4, 13);
    }

    #[test]
    fn scheduler_aware_simd_matches_reference() {
        run_mode(
            PullMode::SchedulerAware,
            grazelle_vsparse::simd::detect(),
            3,
            7,
        );
    }

    #[test]
    fn traditional_matches_reference() {
        run_mode(PullMode::Traditional, SimdLevel::Scalar, 4, 13);
    }

    #[test]
    fn traditional_single_thread_nonatomic_matches_reference() {
        // With one thread there are no races, so nonatomic must be exact.
        run_mode(PullMode::TraditionalNoAtomic, SimdLevel::Scalar, 1, 13);
    }

    #[test]
    fn single_chunk_and_chunk_per_vector_both_work() {
        run_mode(PullMode::SchedulerAware, SimdLevel::Scalar, 2, 1);
        let g = star_plus_chain(50);
        let vecs = VectorSparse::<4>::from_csr(g.in_csr()).num_vectors();
        run_mode(PullMode::SchedulerAware, SimdLevel::Scalar, 2, vecs);
    }

    /// Granularity × scheduler kind → chunk counts, over both iteration
    /// spaces and across group counts.
    #[test]
    fn edge_schedulers_honour_granularity() {
        use crate::config::{EngineConfig, Granularity, SchedKind};
        // Vertex v < 1000 has the single in-edge v+1 -> v: 1000 vectors.
        let mut el = EdgeList::new(1001);
        for v in 0..1000u32 {
            el.push(v + 1, v).unwrap();
        }
        let g = Graph::from_edgelist(&el).unwrap();
        let vsd = VectorSparse::from_csr(g.in_csr());
        let vss = VectorSparse::from_csr(g.out_csr());
        assert_eq!(vsd.num_vectors(), 1000);
        let active = active_vector_list(&vsd, &vss, &Frontier::all(1001), None);
        assert_eq!(active.total_vectors(), 1000);
        for kind in [SchedKind::Central, SchedKind::LocalityStealing] {
            // (threads, groups, granularity, full-space chunks, compacted chunks)
            for (threads, groups, gran, full, compact) in [
                (2, 1, Granularity::VectorsPerChunk(100), 10, 10),
                (2, 1, Granularity::Default32n, 64, 64),
                (4, 2, Granularity::VectorsPerChunk(100), 10, 10),
                (4, 2, Granularity::Default32n, 128, 128),
                (1, 1, Granularity::VectorsPerChunk(3), 334, 334),
            ] {
                let cfg = EngineConfig::new()
                    .with_threads(threads)
                    .with_groups(groups)
                    .with_granularity(gran)
                    .with_sched_kind(kind);
                let pool = ThreadPool::new(threads, groups);
                let s = EdgeSchedulers::new(&cfg, &vsd, &pool);
                assert_eq!(
                    s.total_chunks(),
                    full,
                    "{kind:?}/{threads}/{groups}/{gran:?}"
                );
                assert_eq!(s.num_items(), 1000);
                let s = EdgeSchedulers::active(&cfg, &active, &pool);
                assert_eq!(s.total_chunks(), compact, "{kind:?}/{threads}/{gran:?}");
                assert_eq!(s.num_items(), 1000);
            }
        }
    }

    #[test]
    fn scheduler_aware_performs_no_synchronized_updates() {
        let g = star_plus_chain(200);
        let vsd = VectorSparse::from_csr(g.in_csr());
        let n = g.num_vertices();
        let prog = SumProg {
            vals: PropertyArray::filled_f64(n, 1.0),
            acc: PropertyArray::filled_f64(n, 0.0),
            n,
        };
        let pool = ThreadPool::single_group(4);
        let sched = EdgeSchedulers::single(vsd.num_vectors(), 16);
        let mut merge = SlotBuffer::new(16);
        let prof = Profiler::new();
        let kern = program_kernel(&prog, &vsd, Kernels::with_level(SimdLevel::Scalar));
        edge_pull(
            &vsd,
            &kern,
            &Frontier::all(n),
            PullSpace::Full(&sched),
            &pool,
            &mut merge,
            &prof,
            None,
        );
        let p = prof.snapshot();
        assert_eq!(p.atomic_updates, 0, "scheduler-aware must not synchronize");
        assert_eq!(p.nonatomic_updates, 0);
        assert!(p.direct_stores > 0, "interior transitions expected");
        assert!(p.merge_entries > 0, "chunk boundaries expected");
        // Shared-memory writes bounded by vertices + chunks, far below the
        // per-vector traffic of the traditional interface.
        assert!(p.direct_stores + p.merge_entries <= (n + 16) as u64);
    }

    #[test]
    fn frontier_masks_inactive_sources() {
        let g = star_plus_chain(64);
        let vsd = VectorSparse::from_csr(g.in_csr());
        let n = g.num_vertices();
        let prog = SumProg {
            vals: PropertyArray::filled_f64(n, 1.0),
            acc: PropertyArray::filled_f64(n, 0.0),
            n,
        };
        // Only even vertices active.
        let active: Vec<u32> = (0..n as u32).filter(|v| v % 2 == 0).collect();
        let frontier = Frontier::from_vertices(n, &active);
        let pool = ThreadPool::single_group(2);
        let sched = EdgeSchedulers::single(vsd.num_vectors(), 5);
        let mut merge = SlotBuffer::new(5);
        let prof = Profiler::new();
        let kern = program_kernel(&prog, &vsd, Kernels::auto());
        edge_pull(
            &vsd,
            &kern,
            &frontier,
            PullSpace::Full(&sched),
            &pool,
            &mut merge,
            &prof,
            None,
        );
        for v in 0..n as u32 {
            let expect: f64 = g.in_neighbors(v).iter().filter(|&&s| s % 2 == 0).count() as f64;
            assert_eq!(prog.acc.get_f64(v as usize), expect, "vertex {v}");
        }
    }

    /// Weave checks for the `invariant-checks` shadow tracker: the real
    /// scheduler is silent; deliberately broken chunk sources are caught.
    #[cfg(feature = "invariant-checks")]
    mod tracker_weave {
        use super::*;
        use grazelle_sched::chunks::Chunk;
        use std::sync::atomic::AtomicUsize;

        /// Broken scheduler: hands out `dups` chunks covering the *entire*
        /// iteration space, so every interior destination is stored once
        /// per claimed chunk. With distinct ids the merge buffer stays
        /// happy (distinct slots) — only the tracker can see the bug.
        struct OverlappingSource {
            next: AtomicUsize,
            items: usize,
            dups: usize,
            same_id: bool,
        }
        impl ChunkSource for OverlappingSource {
            fn next_chunk_for(&self, _thread: usize) -> Option<Chunk> {
                let n = self.next.fetch_add(1, Ordering::Relaxed);
                (n < self.dups).then_some(Chunk {
                    id: if self.same_id { 0 } else { n },
                    range: 0..self.items,
                })
            }
            fn num_chunks(&self) -> usize {
                self.dups
            }
            fn num_items(&self) -> usize {
                self.items
            }
            fn reset(&self) {
                self.next.store(0, Ordering::Relaxed);
            }
        }

        fn broken_scheds(items: usize, same_id: bool) -> EdgeSchedulers {
            EdgeSchedulers {
                parts: vec![grazelle_graph::partition::EdgePartition {
                    first_vertex: 0,
                    last_vertex: 0,
                    edge_start: 0,
                    edge_end: items,
                }],
                scheds: vec![Box::new(OverlappingSource {
                    next: AtomicUsize::new(0),
                    items,
                    dups: 2,
                    same_id,
                })],
                chunk_offsets: vec![0],
                total_chunks: 2,
            }
        }

        fn run_with(scheds: &EdgeSchedulers, prof: &Profiler) {
            let g = star_plus_chain(60);
            let vsd = VectorSparse::<4>::from_csr(g.in_csr());
            let n = g.num_vertices();
            let prog = SumProg {
                vals: PropertyArray::filled_f64(n, 1.0),
                acc: PropertyArray::filled_f64(n, 0.0),
                n,
            };
            let pool = ThreadPool::single_group(2);
            let mut merge = SlotBuffer::new(scheds.total_chunks());
            let kern = program_kernel(&prog, &vsd, Kernels::with_level(SimdLevel::Scalar));
            edge_pull(
                &vsd,
                &kern,
                &Frontier::all(n),
                PullSpace::Full(scheds),
                &pool,
                &mut merge,
                prof,
                None,
            );
        }

        #[test]
        fn tracker_is_silent_and_engaged_on_the_real_scheduler() {
            let g = star_plus_chain(60);
            let vsd = VectorSparse::<4>::from_csr(g.in_csr());
            let scheds = EdgeSchedulers::single(vsd.num_vectors(), 9);
            let prof = Profiler::with_tracker();
            run_with(&scheds, &prof);
            let t = prof.tracker.as_ref().expect("tracker installed");
            assert_eq!(t.phases_checked(), 1, "the Edge phase must be audited");
        }

        /// A scheduler that hands the same iteration range out twice under
        /// *distinct* chunk ids double-stores every interior destination.
        /// The merge buffer cannot see this; the tracker must.
        #[test]
        #[should_panic(expected = "exactly-once-write contract violated")]
        fn overlapping_chunk_ranges_trip_the_tracker() {
            let g = star_plus_chain(60);
            let vsd = VectorSparse::<4>::from_csr(g.in_csr());
            let scheds = broken_scheds(vsd.num_vectors(), false);
            let prof = Profiler::with_tracker();
            run_with(&scheds, &prof);
        }

        /// A scheduler that hands the same chunk *id* to two claimants hits
        /// the merge buffer's write-once guard inside a worker; the pool
        /// re-raises the panic.
        #[test]
        #[should_panic(expected = "worker thread panicked")]
        fn duplicate_chunk_id_trips_the_slot_guard() {
            let g = star_plus_chain(60);
            let vsd = VectorSparse::<4>::from_csr(g.in_csr());
            let scheds = broken_scheds(vsd.num_vectors(), true);
            let prof = Profiler::with_tracker();
            run_with(&scheds, &prof);
        }
    }

    /// Runs the dense scheduler-aware pull and the compacted frontier-aware
    /// pull on the same program state and asserts bit-identical
    /// accumulators.
    fn assert_compact_matches_dense(n: usize, frontier: &Frontier, threads: usize) {
        let g = star_plus_chain(n);
        let vsd = VectorSparse::from_csr(g.in_csr());
        let vss = VectorSparse::from_csr(g.out_csr());
        let vals = PropertyArray::new(n);
        for v in 0..n {
            vals.set_f64(v, (v % 17) as f64 + 0.25);
        }
        let mk = |vals: &PropertyArray| {
            let copy = PropertyArray::new(n);
            for v in 0..n {
                copy.set_f64(v, vals.get_f64(v));
            }
            SumProg {
                vals: copy,
                acc: PropertyArray::filled_f64(n, 0.0),
                n,
            }
        };
        let pool = ThreadPool::single_group(threads);
        let cfg = crate::config::EngineConfig::new().with_threads(threads);

        let dense = mk(&vals);
        let sched = EdgeSchedulers::single(vsd.num_vectors(), 11);
        let mut merge = SlotBuffer::new(sched.total_chunks());
        let prof = Profiler::new();
        let kern = program_kernel(&dense, &vsd, Kernels::auto());
        edge_pull(
            &vsd,
            &kern,
            frontier,
            PullSpace::Full(&sched),
            &pool,
            &mut merge,
            &prof,
            None,
        );

        let compact = mk(&vals);
        let active = active_vector_list(&vsd, &vss, frontier, None);
        let mut merge = SlotBuffer::new(1);
        let prof = Profiler::new();
        let kern = program_kernel(&compact, &vsd, Kernels::auto());
        let scheds = EdgeSchedulers::active(&cfg, &active, &pool);
        let space = PullSpace::Active(&active, &scheds);
        edge_pull(&vsd, &kern, frontier, space, &pool, &mut merge, &prof, None);
        for v in 0..n {
            assert_eq!(
                dense.acc.get_f64(v).to_bits(),
                compact.acc.get_f64(v).to_bits(),
                "vertex {v} diverges between dense and compact pull"
            );
        }
    }

    #[test]
    fn compact_pull_is_bit_identical_to_dense_pull() {
        let n = 97;
        let sparse: Vec<u32> = (0..n as u32).filter(|v| v % 7 == 0).collect();
        assert_compact_matches_dense(n, &Frontier::from_vertices(n, &sparse), 4);
        assert_compact_matches_dense(n, &Frontier::sparse(n, &sparse), 2);
        assert_compact_matches_dense(n, &Frontier::all(n), 3);
        assert_compact_matches_dense(n, &Frontier::from_vertices(n, &[5]), 1);
    }

    #[test]
    fn compact_pull_handles_an_empty_active_set() {
        let n = 32;
        let g = star_plus_chain(n);
        let vsd = VectorSparse::from_csr(g.in_csr());
        let vss = VectorSparse::from_csr(g.out_csr());
        let prog = SumProg {
            vals: PropertyArray::filled_f64(n, 1.0),
            acc: PropertyArray::filled_f64(n, 0.0),
            n,
        };
        let frontier = Frontier::empty(n);
        let active = active_vector_list(&vsd, &vss, &frontier, None);
        assert!(active.is_empty());
        let pool = ThreadPool::single_group(2);
        let cfg = crate::config::EngineConfig::new().with_threads(2);
        let mut merge = SlotBuffer::new(1);
        let prof = Profiler::new();
        let kern = program_kernel(&prog, &vsd, Kernels::auto());
        let scheds = EdgeSchedulers::active(&cfg, &active, &pool);
        let space = PullSpace::Active(&active, &scheds);
        edge_pull(
            &vsd, &kern, &frontier, space, &pool, &mut merge, &prof, None,
        );
        for v in 0..n {
            assert_eq!(prog.acc.get_f64(v), 0.0, "vertex {v} written");
        }
    }

    #[test]
    fn active_vector_list_covers_exactly_the_reachable_destinations() {
        let n = 60;
        let g = star_plus_chain(n);
        let vsd = VectorSparse::from_csr(g.in_csr());
        let vss = VectorSparse::from_csr(g.out_csr());
        // Only vertex 3 active: its out-edges are 3 -> 0 (hub) and 3 -> 4.
        let frontier = Frontier::from_vertices(n, &[3]);
        let active = active_vector_list(&vsd, &vss, &frontier, None);
        assert_eq!(active.active_vertices(), 2);
        let expect: usize = vsd.vector_range(0).len() + vsd.vector_range(4).len();
        assert_eq!(active.total_vectors(), expect);
        // Converged destinations drop out of the list.
        let conv = DenseBitmap::new(n);
        conv.insert(0);
        let pruned = active_vector_list(&vsd, &vss, &frontier, Some(&conv));
        assert_eq!(pruned.active_vertices(), 1);
        assert_eq!(pruned.total_vectors(), vsd.vector_range(4).len());
    }

    #[test]
    fn compact_resilient_clean_and_after_chunk_panics_matches_dense() {
        let n = 97;
        let g = star_plus_chain(n);
        let vsd = VectorSparse::from_csr(g.in_csr());
        let vss = VectorSparse::from_csr(g.out_csr());
        let actives: Vec<u32> = (0..n as u32).filter(|v| v % 5 == 0).collect();
        let frontier = Frontier::from_vertices(n, &actives);
        let mk = || SumProg {
            vals: PropertyArray::filled_f64(n, 1.0),
            acc: PropertyArray::filled_f64(n, 0.0),
            n,
        };
        let pool = ThreadPool::single_group(2);
        let cfg = crate::config::EngineConfig::new().with_threads(2);

        let reference = mk();
        let sched = EdgeSchedulers::single(vsd.num_vectors(), 9);
        let mut merge = SlotBuffer::new(sched.total_chunks());
        let prof = Profiler::new();
        let kern = program_kernel(&reference, &vsd, Kernels::auto());
        edge_pull(
            &vsd,
            &kern,
            &frontier,
            PullSpace::Full(&sched),
            &pool,
            &mut merge,
            &prof,
            None,
        );

        let active = active_vector_list(&vsd, &vss, &frontier, None);
        for plan in [
            ExecFaultPlan::clean(),
            ExecFaultPlan::clean().with_chunk_panic(0, 0, 1),
        ] {
            let prog = mk();
            let inj = ExecInjector::new(plan);
            inj.set_iteration(0);
            let mut merge = SlotBuffer::new(1);
            let prof = Profiler::new();
            let kern = program_kernel(&prog, &vsd, Kernels::auto());
            let scheds = EdgeSchedulers::active(&cfg, &active, &pool);
            let contain = Containment {
                deadline: None,
                max_chunk_retries: cfg.resilience.max_chunk_retries,
                injector: Some(&inj),
            };
            let status = edge_pull(
                &vsd,
                &kern,
                &frontier,
                PullSpace::Active(&active, &scheds),
                &pool,
                &mut merge,
                &prof,
                Some(&contain),
            );
            assert_eq!(status, PullStatus::Completed);
            for v in 0..n {
                assert_eq!(
                    prog.acc.get_f64(v).to_bits(),
                    reference.acc.get_f64(v).to_bits(),
                    "vertex {v}"
                );
            }
        }
    }

    #[cfg(feature = "invariant-checks")]
    #[test]
    fn compact_pull_is_audited_with_the_active_subset_restriction() {
        let n = 80;
        let g = star_plus_chain(n);
        let vsd = VectorSparse::from_csr(g.in_csr());
        let vss = VectorSparse::from_csr(g.out_csr());
        let actives: Vec<u32> = (0..n as u32).filter(|v| v % 3 == 0).collect();
        let frontier = Frontier::from_vertices(n, &actives);
        let prog = SumProg {
            vals: PropertyArray::filled_f64(n, 1.0),
            acc: PropertyArray::filled_f64(n, 0.0),
            n,
        };
        let active = active_vector_list(&vsd, &vss, &frontier, None);
        let pool = ThreadPool::single_group(2);
        let cfg = crate::config::EngineConfig::new().with_threads(2);
        let mut merge = SlotBuffer::new(1);
        let prof = Profiler::with_tracker();
        let kern = program_kernel(&prog, &vsd, Kernels::auto());
        let scheds = EdgeSchedulers::active(&cfg, &active, &pool);
        let space = PullSpace::Active(&active, &scheds);
        edge_pull(
            &vsd, &kern, &frontier, space, &pool, &mut merge, &prof, None,
        );
        let t = prof.tracker.as_ref().expect("tracker installed");
        assert_eq!(t.phases_checked(), 1, "the compacted phase must be audited");
    }

    #[test]
    fn converged_destinations_receive_nothing() {
        let g = star_plus_chain(40);
        let vsd = VectorSparse::from_csr(g.in_csr());
        let n = g.num_vertices();
        struct ConvProg {
            inner: SumProg,
            conv: DenseBitmap,
        }
        impl GraphProgram for ConvProg {
            fn num_vertices(&self) -> usize {
                self.inner.n
            }
            fn op(&self) -> AggOp {
                AggOp::Sum
            }
            fn edge_values(&self) -> &PropertyArray {
                &self.inner.vals
            }
            fn accumulators(&self) -> &PropertyArray {
                &self.inner.acc
            }
            fn apply(&self, _v: u32) -> bool {
                false
            }
            fn uses_frontier(&self) -> bool {
                false
            }
            fn converged(&self) -> Option<&DenseBitmap> {
                Some(&self.conv)
            }
        }
        let conv = DenseBitmap::new(n);
        conv.insert(0); // the hub: normally receives n-1 messages
        let prog = ConvProg {
            inner: SumProg {
                vals: PropertyArray::filled_f64(n, 1.0),
                acc: PropertyArray::filled_f64(n, 0.0),
                n,
            },
            conv,
        };
        let pool = ThreadPool::single_group(2);
        let sched = EdgeSchedulers::single(vsd.num_vectors(), 4);
        let mut merge = SlotBuffer::new(4);
        let prof = Profiler::new();
        let kern = program_kernel(&prog, &vsd, Kernels::auto());
        edge_pull(
            &vsd,
            &kern,
            &Frontier::all(n),
            PullSpace::Full(&sched),
            &pool,
            &mut merge,
            &prof,
            None,
        );
        assert_eq!(prog.inner.acc.get_f64(0), 0.0, "converged hub got data");
        assert_eq!(prog.inner.acc.get_f64(1), 1.0); // chain edge 0 -> 1
    }
}
