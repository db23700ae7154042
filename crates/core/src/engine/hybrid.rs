//! The hybrid driver: per-iteration engine selection and the one superstep
//! loop behind every run entry point.
//!
//! "A hybrid framework contains one engine of each type and, for each
//! iteration, selects which to use based on the state of the frontier. Such
//! a framework generally selects its pull engine whenever a sufficiently
//! large part of the graph is contained in the frontier" (§2). The driver
//! also owns the synchronous iteration structure: Edge phase → barrier →
//! Vertex phase → barrier, repeated until convergence.
//!
//! [`run_supersteps`] is that loop. The `run_program*` entry points run it
//! under the no-op resilience policy; the `run_resilient*` entry points
//! ([`crate::engine::resilient`]) run it under the contained policy.

use crate::config::{DirectionPolicy, EngineConfig, PullMode};
use crate::engine::pull::{
    active_vector_list, edge_pull, edge_pull_traditional, Containment, EdgeSchedulers, MergeEntry,
    PullSpace, PullStatus,
};
use crate::engine::push::{edge_push, edge_push_with_mode};
use crate::engine::resilient::{
    redo_edge_phase, redo_vertex_phase, DivergenceGuard, EngineError, Policy, ResilientRun,
    RunOutcome,
};
use crate::engine::vertex::{reset_accumulators, vertex_phase};
use crate::engine::PreparedGraph;
use crate::frontier::{DenseBitmap, Frontier};
use crate::program::GraphProgram;
use crate::spmv::program_kernel;
use crate::spmv::spa::SpaScratch;
use crate::stats::{PhaseProfile, Profiler};
use crate::trace::{Deadline, FlightRecorder, IterationRecord, SpanClock};
use grazelle_sched::pool::ThreadPool;
use grazelle_sched::slots::SlotBuffer;
use grazelle_vsparse::simd::Kernels;
use std::time::Duration;

/// Which engine executed an Edge phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Edge-Pull (destination-grouped, scheduler-aware capable).
    Pull,
    /// Edge-Push (source-grouped, frontier-friendly).
    Push,
}

/// Summary of one program run.
#[derive(Debug, Clone)]
pub struct ExecutionStats {
    /// Iterations executed.
    pub iterations: usize,
    /// Iterations that selected Edge-Pull.
    pub pull_iterations: usize,
    /// Iterations that selected Edge-Push.
    pub push_iterations: usize,
    /// End-to-end wall time.
    pub wall: Duration,
    /// Aggregated phase profile (Figure 5b decomposition + write traffic).
    pub profile: PhaseProfile,
    /// Engine selected per iteration (index = iteration).
    pub engine_trace: Vec<EngineKind>,
    /// Flight-recorder trace: one [`IterationRecord`] per executed
    /// superstep, oldest first. Empty unless
    /// [`EngineConfig::trace`](crate::config::EngineConfig::trace) is set.
    /// On the resilient path rolled-back executions are recorded too, so
    /// the trace length is `iterations + rollbacks`.
    pub records: Vec<IterationRecord>,
}

impl ExecutionStats {
    /// Wall time per iteration.
    pub fn per_iteration(&self) -> Duration {
        if self.iterations == 0 {
            Duration::ZERO
        } else {
            self.wall / self.iterations as u32
        }
    }
}

/// Runs `prog` to completion on a freshly created pool.
pub fn run_program<P: GraphProgram>(
    pg: &PreparedGraph,
    prog: &P,
    cfg: &EngineConfig,
) -> ExecutionStats {
    let pool = ThreadPool::new(cfg.threads, cfg.groups);
    run_program_on_pool(pg, prog, cfg, &pool)
}

/// Runs `prog` to completion on an existing pool (benchmarks reuse pools to
/// avoid re-measuring thread spawns).
pub fn run_program_on_pool<P: GraphProgram>(
    pg: &PreparedGraph,
    prog: &P,
    cfg: &EngineConfig,
    pool: &ThreadPool,
) -> ExecutionStats {
    run_program_overlay_on_pool(pg, None, prog, cfg, pool)
}

/// [`run_program_on_pool`] over a versioned graph: `delta` holds the
/// prepared overlay of pending edge inserts (same vertex set as `pg`).
///
/// Each superstep runs the base Edge phase as usual, then folds the delta
/// edges in with a combining Edge-Push pass over the delta's VSS. The order
/// matters: the scheduler-aware pull writes interior destinations with
/// *direct stores*, so the delta contribution must land strictly after the
/// base phase — and must itself combine (CAS per edge), never overwrite.
/// Base and delta edge sets are disjoint (the delta layer deduplicates
/// inserts against the base), so for Min/Max/Sum the two phases together
/// produce exactly the aggregate a merged rebuild would.
pub fn run_program_overlay_on_pool<P: GraphProgram>(
    pg: &PreparedGraph,
    delta: Option<&PreparedGraph>,
    prog: &P,
    cfg: &EngineConfig,
    pool: &ThreadPool,
) -> ExecutionStats {
    match run_supersteps(pg, delta, prog, cfg, &Policy::clean(), pool) {
        Ok(run) => run.stats,
        Err(e) => unreachable!("the no-op policy has no error exits: {e}"),
    }
}

/// The superstep loop (paper §2, §5): each superstep picks pull or push,
/// runs the Edge phase, folds the delta overlay, runs the Vertex phase and
/// switches the frontier, until the program stops or `cfg.max_iterations`.
/// `policy` decides what a fault does (DESIGN.md §9): under the no-op
/// policy it propagates; under the contained policy it is retried, redone
/// sequentially, rolled back, or surfaced as an [`EngineError`].
pub(crate) fn run_supersteps<P: GraphProgram>(
    pg: &PreparedGraph,
    delta: Option<&PreparedGraph>,
    prog: &P,
    cfg: &EngineConfig,
    policy: &Policy<'_>,
    pool: &ThreadPool,
) -> Result<ResilientRun, EngineError> {
    assert_eq!(
        prog.num_vertices(),
        pg.num_vertices,
        "program arrays must match the graph"
    );
    if let Some(d) = delta {
        assert_eq!(
            d.num_vertices, pg.num_vertices,
            "delta must cover the base vertex set"
        );
    }
    let delta = delta.filter(|d| d.num_edges > 0);
    // The sequential redo paths call `scalar_pull_pass` directly, whose
    // unsafe vertex-indexed reads rely on these bounds.
    assert!(
        prog.edge_values().len() >= pg.vsd.num_vertices(),
        "edge_values must cover every vertex"
    );
    assert!(
        prog.accumulators().len() >= pg.vsd.num_vertices(),
        "accumulators must cover every vertex"
    );
    let res = policy.res;
    let rctx = policy.rctx;
    let threads = pool.num_threads() as u32;
    let scheds = EdgeSchedulers::new(cfg, &pg.vsd, pool);
    let mut merge: SlotBuffer<MergeEntry> = SlotBuffer::new(scheds.total_chunks());
    // SPA bucket storage, reused across supersteps (DESIGN.md §17) the same
    // way `merge` persists the pull side's slot buffers. Safe across panic
    // containment: workers clear their buckets at scatter start, so a
    // discarded phase cannot leak stale entries into the redo.
    let mut spa_scratch = SpaScratch::new();
    // One masked-SpMV kernel per run (DESIGN.md §16): a struct of borrows
    // over the program's arrays and the structure's weight vectors. The same
    // kernel serves pull (gathers), push (messages) and their sequential
    // redos — all read `edge_values[src]`, which the Vertex phase updates
    // in place.
    let kern = program_kernel(prog, &pg.vsd, Kernels::with_level(cfg.simd));
    // Out-degree table for the direction model's exact frontier-cost path;
    // built lazily on the first iteration that computes a density.
    let mut out_degrees: Option<Vec<u32>> = None;
    // Under `invariant-checks` every run is audited: the pull engine records
    // interior stores, slot claims, and merge folds into the tracker and
    // asserts the §3 exactly-once-write contract after each Edge phase.
    #[cfg(feature = "invariant-checks")]
    let prof = Profiler::with_tracker();
    #[cfg(not(feature = "invariant-checks"))]
    let prof = Profiler::new();
    #[cfg(feature = "invariant-checks")]
    let mut audited_pulls = 0usize;

    let resumed = policy.resume(prog, &prof);
    let resumed_from = resumed.as_ref().map(|(k, _)| *k);
    let (start_iter, mut frontier) = resumed.unwrap_or_else(|| (0, prog.initial_frontier()));
    let mut engine_trace = Vec::new();
    let mut iterations = start_iter;
    let mut rollbacks_this_iter = 0u32;
    let mut diverged_stop = false;
    let mut guard = res
        .divergence_guard
        .then(|| DivergenceGuard::new(prog, &frontier));
    let mut recorder = if cfg.trace {
        FlightRecorder::new()
    } else {
        FlightRecorder::disabled()
    };
    let start = SpanClock::start();

    let mut iter = start_iter;
    while iter < cfg.max_iterations {
        // Cooperative cancellation is observed only here, at the iteration
        // boundary: every array holds the state of the last completed
        // iteration, so a cancelled query leaves nothing torn and the pool
        // needs no cleanup.
        if rctx.cancel.is_some_and(|c| c.is_cancelled()) {
            return Err(EngineError::Cancelled { iteration: iter });
        }
        let deadline = res.watchdog.map(Deadline::after);
        let stalled = move || EngineError::Stalled { iteration: iter };
        if let Some(inj) = rctx.injector {
            inj.set_iteration(iter);
        }
        prog.pre_iteration(iter);
        // One density computation per superstep, shared by engine
        // selection, the frontier-aware pull gate, and the trace — so the
        // three can never disagree and tracing cannot perturb selection.
        // `None` for frontier-less programs (PageRank) and all-active
        // frontiers, where selection short-circuits to pull.
        let density = (prog.uses_frontier() && !frontier.is_all()).then(|| frontier.density());
        // Disabled-recorder cost per executed superstep: this one branch
        // (and the matching one at record-push time).
        let snap_before = recorder.is_enabled().then(|| prof.snapshot());
        let sparse_repr = matches!(frontier, Frontier::Sparse { .. });
        reset_accumulators(prog, pool, &prof);

        // Direction choice (DESIGN.md §16): one shared [`Decision`] feeds
        // engine selection, the compaction gate, and the trace.
        if density.is_some()
            && cfg.direction_policy == DirectionPolicy::CostModel
            && out_degrees.is_none()
        {
            out_degrees = Some(crate::direction::out_degree_table(&pg.vss));
        }
        let converged = prog.converged().map_or(0, |c| c.count());
        let decision = crate::direction::decide(
            cfg,
            density,
            &frontier,
            out_degrees.as_deref(),
            pg.num_edges,
            pg.num_vertices,
            converged,
        );
        let use_pull = decision.use_pull;
        let engine = if use_pull {
            EngineKind::Pull
        } else {
            EngineKind::Push
        };
        // Threads that actually executed the Edge phase (1 when it
        // degraded to the sequential scalar redo) — recorded per superstep.
        let mut edge_parallelism = threads;
        // Active-vector count when the frontier-aware compacted pull ran.
        let mut compacted: Option<u64> = None;
        if use_pull {
            // Frontier-aware pull (DESIGN.md §11): when the direction model
            // expects few active destinations, compact the iteration space
            // to the vectors of destinations that can actually receive
            // messages. Bail out to the dense pass when the compacted space
            // isn't materially smaller (≥ 60% of the full array).
            let active = (cfg.frontier_pull
                && cfg.pull_mode == PullMode::SchedulerAware
                && decision.compact)
                .then(|| active_vector_list(&pg.vsd, &pg.vss, &frontier, prog.converged()))
                .filter(|a| a.total_vectors() * 10 < pg.vsd.num_vectors() * 6);
            // The contained policy always pulls scheduler-aware: chunk retry
            // is only sound under its write discipline (DESIGN.md §9).
            let aware = policy.contain || cfg.pull_mode == PullMode::SchedulerAware;
            let compact = active.map(|a| {
                compacted = Some(a.total_vectors() as u64);
                let scheds = EdgeSchedulers::active(cfg, &a, pool);
                (a, scheds)
            });
            let status = if aware {
                let space = match &compact {
                    Some((a, s)) => PullSpace::Active(a, s),
                    None => PullSpace::Full(&scheds),
                };
                let contain = policy.contain.then_some(Containment {
                    deadline,
                    max_chunk_retries: res.max_chunk_retries,
                    injector: rctx.injector,
                });
                let merge = &mut merge;
                edge_pull(
                    &pg.vsd,
                    &kern,
                    &frontier,
                    space,
                    pool,
                    merge,
                    &prof,
                    contain.as_ref(),
                )
            } else {
                let mode = cfg.pull_mode;
                edge_pull_traditional(&pg.vsd, &kern, &frontier, pool, &scheds, mode, &prof);
                PullStatus::Completed
            };
            match status {
                #[cfg(feature = "invariant-checks")]
                PullStatus::Completed if aware => audited_pulls += 1,
                PullStatus::Completed => {}
                PullStatus::Degraded => {
                    // The degrade redo is a full-array sequential pass, so
                    // the record must not claim the compacted path ran.
                    edge_parallelism = 1;
                    compacted = None;
                }
                PullStatus::Stalled => return Err(stalled()),
            }
        } else {
            // RECOVERY: Edge-Push scatters with non-idempotent synchronized
            // read-modify-writes, so a panicked push phase cannot be
            // partially retried. Containment instead discards the phase —
            // reset the accumulators and recompute the identical aggregate
            // with one sequential frontier-masked pull pass (for any
            // frontier, push-from-active-sources and pull-masked-to-active-
            // sources produce the same per-destination aggregate).
            // Scatter discipline from the shared decision (DESIGN.md §17):
            // synchronized per-edge scatter or the SPA bucketed pipeline.
            // Containment is identical for both arms: a panic anywhere in
            // the SPA scatter/merge pipeline (like one in the synchronized
            // scatter) discards the phase wholesale and redoes it below.
            let pushed = policy.guard(|| {
                edge_push_with_mode(
                    &pg.vss,
                    &kern,
                    &frontier,
                    pool,
                    &prof,
                    decision.scatter,
                    &mut spa_scratch,
                )
            });
            if pushed.is_none() {
                edge_parallelism = 1;
                if !redo_edge_phase(pg, &kern, &frontier, None, deadline, &prof) {
                    return Err(stalled());
                }
            }
        }
        engine_trace.push(engine);
        // Delta phase: combine pending-insert edges into the accumulators
        // after the base phase (see `run_program_overlay_on_pool` for why
        // this must come second and must push). The base kernel serves here
        // too: `message` only reads the program arrays, never the base
        // structure. Always the synchronized scatter: delta overlays are
        // tiny and must combine into accumulators the base phase already
        // folded, which the SPA merge's plain-store discipline does not
        // cover.
        if let Some(d) = delta {
            // RECOVERY: like the base push, the delta push's synchronized
            // read-modify-writes cannot be partially retried — a panic
            // discards the whole Edge phase (base aggregate included, since
            // the partial delta commits polluted it) and recomputes it
            // sequentially: scalar base pull, then a single-threaded delta
            // push. Both redo passes combine from a reset accumulator, so
            // the result is the same per-destination aggregate.
            if policy
                .guard(|| edge_push(&d.vss, &kern, &frontier, pool, &prof))
                .is_none()
            {
                edge_parallelism = 1;
                compacted = None;
                if !redo_edge_phase(pg, &kern, &frontier, Some(&d.vss), deadline, &prof) {
                    return Err(stalled());
                }
            }
        }
        if deadline.is_some_and(|dl| dl.expired()) {
            return Err(stalled());
        }

        // Injected NaN poison lands between the phases, exactly where a
        // corrupted Edge-phase result would sit.
        if let Some(v) = rctx.injector.and_then(|inj| inj.poison_target()) {
            // DISJOINT: sequential-merge — fault injection between phases,
            // single-threaded
            prog.accumulators().set_f64(v, f64::NAN);
        }

        let mut next = prog
            .uses_frontier()
            .then(|| DenseBitmap::new(pg.num_vertices));
        // Threads that actually executed the Vertex phase (1 on the
        // sequential panic-recovery redo) — recorded per superstep.
        let mut vertex_parallelism = threads;
        // RECOVERY: the Vertex phase's local update reads the (intact)
        // accumulators and overwrites the vertex properties — for the
        // supported programs `apply` is idempotent on *values*, so the
        // phase can be re-run sequentially into a fresh frontier bitmap
        // (the partially filled one is discarded). Its *return value* is
        // not idempotent, though: a vertex whose update committed before
        // the panic reports "unchanged" on re-run and would silently drop
        // out of the rebuilt frontier. So either the properties are rolled
        // back to their pre-phase state first (the divergence guard's
        // last-good snapshot was taken before this phase touched them, and
        // the Edge phase only writes accumulators, which `restore_into`
        // skips), making the re-run's activation bits exact, or — with the
        // guard off — activation is rebuilt conservatively: any vertex
        // whose aggregate differs from the operator identity may have
        // changed this phase. The superset is safe for the supported
        // frontier programs (idempotent Min/Max propagation): extra active
        // sources re-contribute values their neighbors have already
        // absorbed, and the over-count only delays `should_stop` by at
        // most one no-op iteration.
        let applied = policy.guard(|| vertex_phase(prog, pool, next.as_ref(), cfg.simd, &prof));
        let active = match applied {
            Some(a) => a,
            None => {
                vertex_parallelism = 1;
                let (fresh, active) = redo_vertex_phase(prog, guard.as_ref(), &prof);
                next = fresh;
                active
            }
        };
        if deadline.is_some_and(|dl| dl.expired()) {
            return Err(stalled());
        }

        // Divergence guard: a poisoned result rolls the program back to the
        // last-good snapshot and re-runs the same iteration.
        let restored = guard.as_mut().and_then(|g| g.check(prog, &prof));
        let rolled_back = restored.is_some();
        if let Some(f) = restored {
            frontier = f;
        } else {
            if let Some(nb) = next {
                let dense = Frontier::Dense(nb);
                // Representation switch (sparse-frontier extension):
                // near-empty frontiers become sorted vertex lists so the
                // next push iteration is O(|F|) instead of an O(|V|/64)
                // bitmap scan.
                frontier = if cfg.sparse_frontier
                    && (active as f64) <= cfg.sparse_threshold * pg.num_vertices as f64
                {
                    dense.to_sparse()
                } else {
                    dense
                };
            }
            if let Some(g) = guard.as_mut() {
                g.set_frontier(&frontier);
            }
            iterations = iter + 1;
        }
        // A rolled-back execution is still an executed superstep: record it
        // (the re-run contributes a second record with the same
        // `iteration`, so trace length = iterations + rollbacks, matching
        // `engine_trace`).
        if let Some(before) = snap_before {
            // The trace reports the same density selection used (1.0 for
            // the short-circuit cases — the value `Frontier::density()`
            // returns for all-active frontiers).
            let mut rec = IterationRecord::from_snapshots(
                iter as u32,
                engine,
                density.unwrap_or(1.0),
                cfg.pull_threshold,
                sparse_repr,
                &before,
                &prof.snapshot(),
                edge_parallelism,
                vertex_parallelism,
                rolled_back,
            );
            if let Some(av) = compacted {
                rec.pull_compacted = true;
                rec.active_vectors = av;
            }
            rec.dir_frontier_edges = decision.frontier_edges;
            rec.dir_unvisited_edges = decision.unvisited_edges;
            rec.scatter_mode = (!use_pull).then_some(decision.scatter);
            recorder.push(rec);
        }
        if rolled_back {
            rollbacks_this_iter += 1;
            if rollbacks_this_iter >= 2 {
                // Persistent divergence: stop at the last finite iterate.
                diverged_stop = true;
                break;
            }
            continue; // re-run the same iteration
        }
        rollbacks_this_iter = 0;

        policy.checkpoint(iter + 1, prog, &frontier, &prof)?;
        let stop = prog.should_stop(iter, active);
        iter += 1;
        if stop {
            break;
        }
    }

    // The tracker opens one audit phase per scheduler-aware Edge phase and
    // closes it when the phase completes; a mismatch means an Edge phase ran
    // unaudited (a weaving bug, not a scheduling one).
    #[cfg(feature = "invariant-checks")]
    if let Some(t) = prof.tracker.as_ref() {
        assert_eq!(
            t.phases_checked() as usize,
            audited_pulls,
            "every scheduler-aware Edge phase must be audited"
        );
    }

    let profile = prof.snapshot();
    let pull_iterations = engine_trace
        .iter()
        .filter(|&&k| k == EngineKind::Pull)
        .count();
    let push_iterations = engine_trace.len() - pull_iterations;
    let outcome = if diverged_stop {
        RunOutcome::DivergedRecovered
    } else if !profile.resilience_clean() || profile.checkpoint_restores > 0 {
        RunOutcome::Recovered
    } else {
        RunOutcome::Clean
    };
    Ok(ResilientRun {
        stats: ExecutionStats {
            iterations,
            pull_iterations,
            push_iterations,
            wall: start.elapsed(),
            profile,
            engine_trace,
            records: recorder.into_records(),
        },
        outcome,
        resumed_from,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DirectionPolicy, PullMode};
    use crate::program::AggOp;
    use crate::properties::PropertyArray;
    use grazelle_graph::edgelist::EdgeList;
    use grazelle_graph::graph::Graph;

    /// Minimal label-propagation program (Connected-Components-like) used
    /// to exercise the full driver loop including engine switching.
    struct MinLabel {
        labels: PropertyArray,
        acc: PropertyArray,
        n: usize,
    }
    impl MinLabel {
        fn new(n: usize) -> Self {
            let labels = PropertyArray::new(n);
            for v in 0..n {
                labels.set_f64(v, v as f64);
            }
            MinLabel {
                labels,
                acc: PropertyArray::new(n),
                n,
            }
        }
    }
    impl GraphProgram for MinLabel {
        fn num_vertices(&self) -> usize {
            self.n
        }
        fn op(&self) -> AggOp {
            AggOp::Min
        }
        fn edge_values(&self) -> &PropertyArray {
            &self.labels
        }
        fn accumulators(&self) -> &PropertyArray {
            &self.acc
        }
        fn apply(&self, v: u32) -> bool {
            let old = self.labels.get_f64(v as usize);
            let agg = self.acc.get_f64(v as usize);
            if agg < old {
                self.labels.set_f64(v as usize, agg);
                true
            } else {
                false
            }
        }
        fn uses_frontier(&self) -> bool {
            true
        }
        fn initial_frontier(&self) -> Frontier {
            Frontier::all(self.n)
        }
    }

    fn two_cycles() -> Graph {
        // Two directed cycles: 0..5 and 5..12 (labels converge to 0 and 5).
        let mut el = EdgeList::new(12);
        for v in 0..5u32 {
            el.push(v, (v + 1) % 5).unwrap();
            el.push((v + 1) % 5, v).unwrap();
        }
        for v in 5..12u32 {
            let next = if v == 11 { 5 } else { v + 1 };
            el.push(v, next).unwrap();
            el.push(next, v).unwrap();
        }
        Graph::from_edgelist(&el).unwrap()
    }

    #[test]
    fn driver_converges_to_component_minima() {
        let g = two_cycles();
        let pg = PreparedGraph::new(&g);
        let prog = MinLabel::new(12);
        let cfg = EngineConfig::new().with_threads(2);
        let stats = run_program(&pg, &prog, &cfg);
        for v in 0..5 {
            assert_eq!(prog.labels.get_f64(v), 0.0, "vertex {v}");
        }
        for v in 5..12 {
            assert_eq!(prog.labels.get_f64(v), 5.0, "vertex {v}");
        }
        assert!(stats.iterations > 1);
        assert!(stats.iterations < cfg.max_iterations, "must converge early");
        assert_eq!(stats.engine_trace.len(), stats.iterations);
    }

    #[test]
    fn all_three_pull_modes_agree() {
        let g = two_cycles();
        let pg = PreparedGraph::new(&g);
        let run = |mode| {
            let prog = MinLabel::new(12);
            // Single thread so NoAtomic has no races and must agree too.
            let cfg = EngineConfig::new().with_threads(1).with_pull_mode(mode);
            run_program(&pg, &prog, &cfg);
            prog.labels.to_vec_f64()
        };
        let sa = run(PullMode::SchedulerAware);
        let tr = run(PullMode::Traditional);
        let na = run(PullMode::TraditionalNoAtomic);
        assert_eq!(sa, tr);
        assert_eq!(sa, na);
    }

    #[test]
    fn driver_switches_to_push_for_sparse_frontiers() {
        // Label propagation from full frontier shrinks it; late iterations
        // must select the push engine.
        let mut el = EdgeList::new(300);
        for v in 0..299u32 {
            el.push(v, v + 1).unwrap();
            el.push(v + 1, v).unwrap();
        }
        let g = Graph::from_edgelist(&el).unwrap();
        let pg = PreparedGraph::new(&g);
        let prog = MinLabel::new(300);
        let cfg = EngineConfig::new().with_threads(2);
        let stats = run_program(&pg, &prog, &cfg);
        assert!(stats.pull_iterations >= 1, "dense start should pull");
        assert!(stats.push_iterations >= 1, "sparse tail should push");
        assert_eq!(
            stats.iterations,
            stats.pull_iterations + stats.push_iterations
        );
        // Chain of 300: min label must flood the whole chain.
        for v in 0..300 {
            assert_eq!(prog.labels.get_f64(v), 0.0);
        }
    }

    #[test]
    fn stealing_scheduler_matches_central() {
        use crate::config::SchedKind;
        let g = two_cycles();
        let pg = PreparedGraph::new(&g);
        let run = |kind: SchedKind| {
            let prog = MinLabel::new(12);
            let cfg = EngineConfig::new().with_threads(3).with_sched_kind(kind);
            let stats = run_program(&pg, &prog, &cfg);
            (prog.labels.to_vec_f64(), stats.iterations)
        };
        assert_eq!(run(SchedKind::Central), run(SchedKind::LocalityStealing));
    }

    #[test]
    fn group_counts_do_not_change_results() {
        // NUMA-group partitioning of both Edge phases must be purely a
        // scheduling concern: labels identical across group counts.
        let g = two_cycles();
        let pg = PreparedGraph::new(&g);
        let run = |groups: usize| {
            let prog = MinLabel::new(12);
            let cfg = EngineConfig::new().with_threads(4).with_groups(groups);
            run_program(&pg, &prog, &cfg);
            prog.labels.to_vec_f64()
        };
        let base = run(1);
        for groups in [2, 3, 4] {
            assert_eq!(run(groups), base, "groups={groups}");
        }
    }

    #[test]
    fn sparse_frontier_switching_preserves_results() {
        // A long chain: label propagation's frontier shrinks to a single
        // wave, triggering the sparse representation. Results must match
        // the dense-only configuration exactly.
        let mut el = EdgeList::new(500);
        for v in 0..499u32 {
            el.push(v, v + 1).unwrap();
            el.push(v + 1, v).unwrap();
        }
        let g = Graph::from_edgelist(&el).unwrap();
        let pg = PreparedGraph::new(&g);
        let run = |sparse: bool| {
            let prog = MinLabel::new(500);
            let cfg = EngineConfig::new()
                .with_threads(2)
                .with_max_iterations(2000)
                .with_sparse_frontier(sparse);
            let stats = run_program(&pg, &prog, &cfg);
            (prog.labels.to_vec_f64(), stats.iterations)
        };
        let (sparse_labels, sparse_iters) = run(true);
        let (dense_labels, dense_iters) = run(false);
        assert_eq!(sparse_labels, dense_labels);
        assert_eq!(sparse_iters, dense_iters);
        assert!(sparse_labels.iter().all(|&l| l == 0.0));
    }

    #[test]
    fn flight_recorder_off_by_default_and_mirrors_trace_when_on() {
        let mut el = EdgeList::new(300);
        for v in 0..299u32 {
            el.push(v, v + 1).unwrap();
            el.push(v + 1, v).unwrap();
        }
        let g = Graph::from_edgelist(&el).unwrap();
        let pg = PreparedGraph::new(&g);

        let prog = MinLabel::new(300);
        // Pinned to the legacy gate: the per-record assertions below explain
        // selection from the fixed density thresholds.
        let cfg = EngineConfig::new()
            .with_threads(2)
            .with_direction_policy(DirectionPolicy::DensityGate);
        let stats = run_program(&pg, &prog, &cfg);
        assert!(stats.records.is_empty(), "recorder must default off");

        let prog = MinLabel::new(300);
        let cfg = cfg.with_trace(true);
        let stats = run_program(&pg, &prog, &cfg);
        assert_eq!(stats.records.len(), stats.iterations);
        assert_eq!(stats.records.len(), stats.engine_trace.len());
        for (i, (r, k)) in stats.records.iter().zip(&stats.engine_trace).enumerate() {
            assert_eq!(r.iteration as usize, i);
            assert_eq!(r.engine, *k, "iteration {i}");
            assert_eq!(r.pull_threshold, cfg.pull_threshold);
            assert!((0.0..=1.0).contains(&r.frontier_density), "iteration {i}");
            assert!(
                !r.has_resilience_event(),
                "hybrid path records no resilience events"
            );
            assert_eq!(r.edge_parallelism, 2);
            // Selection must be explainable from the recorded inputs.
            match k {
                EngineKind::Pull => assert!(r.frontier_density >= cfg.pull_threshold),
                EngineKind::Push => assert!(r.frontier_density < cfg.pull_threshold),
            }
        }
        // The long chain's single-wave tail must have entered the sparse
        // representation at least once.
        assert!(stats.records.iter().any(|r| r.sparse_repr));
        // Phase deltas are per-superstep: they must sum to (at most) the
        // aggregate profile, and some superstep must have done edge work.
        let wall_sum: u64 = stats.records.iter().map(|r| r.edge_wall_ns).sum();
        assert!(wall_sum <= stats.profile.edge_wall.as_nanos() as u64);
        assert!(stats.records.iter().any(|r| r.edge_wall_ns > 0));
    }

    #[test]
    fn frontier_aware_pull_matches_dense_pull_exactly() {
        // Force pull for every iteration so the sparse tail exercises the
        // compacted path, then compare against the dense-only arm.
        let mut el = EdgeList::new(400);
        for v in 0..399u32 {
            el.push(v, v + 1).unwrap();
            el.push(v + 1, v).unwrap();
        }
        let g = Graph::from_edgelist(&el).unwrap();
        let pg = PreparedGraph::new(&g);
        let run = |frontier_pull: bool, threads: usize| {
            let prog = MinLabel::new(400);
            let cfg = EngineConfig::new()
                .with_threads(threads)
                .with_max_iterations(2000)
                .with_force_engine(Some(EngineKind::Pull))
                .with_frontier_pull(frontier_pull)
                .with_trace(true);
            let stats = run_program(&pg, &prog, &cfg);
            (prog.labels.to_vec_f64(), stats)
        };
        for threads in [1, 2, 4] {
            let (compact_labels, compact_stats) = run(true, threads);
            let (dense_labels, dense_stats) = run(false, threads);
            assert_eq!(compact_labels, dense_labels, "threads={threads}");
            assert_eq!(compact_stats.iterations, dense_stats.iterations);
            // The long chain's shrinking frontier must actually have taken
            // the compacted path (and never with frontier_pull off).
            assert!(
                compact_stats.records.iter().any(|r| r.pull_compacted),
                "threads={threads}: compacted path never engaged"
            );
            assert!(dense_stats.records.iter().all(|r| !r.pull_compacted));
        }
    }

    #[test]
    fn compacted_records_report_active_vectors_and_gate_density() {
        let mut el = EdgeList::new(400);
        for v in 0..399u32 {
            el.push(v, v + 1).unwrap();
            el.push(v + 1, v).unwrap();
        }
        let g = Graph::from_edgelist(&el).unwrap();
        let pg = PreparedGraph::new(&g);
        let prog = MinLabel::new(400);
        let cfg = EngineConfig::new()
            .with_threads(2)
            .with_max_iterations(2000)
            .with_force_engine(Some(EngineKind::Pull))
            .with_direction_policy(DirectionPolicy::DensityGate)
            .with_trace(true);
        let stats = run_program(&pg, &prog, &cfg);
        let full = pg.vsd.num_vectors() as u64;
        assert!(stats.records.iter().any(|r| r.pull_compacted));
        for r in &stats.records {
            if r.pull_compacted {
                assert!(r.frontier_density <= cfg.frontier_pull_threshold);
                assert!(r.active_vectors > 0, "iteration {}", r.iteration);
                assert!(r.active_vectors < full, "iteration {}", r.iteration);
                // The record's vector count is the compacted space's.
                assert_eq!(r.vectors, r.active_vectors);
            } else {
                assert_eq!(r.active_vectors, 0);
            }
        }
    }

    /// Satellite fix pin: selection and trace must consume one shared
    /// density value, so enabling the recorder can never change which
    /// engine (or pull path) a superstep selects.
    #[test]
    fn tracing_does_not_change_engine_selection() {
        let mut el = EdgeList::new(300);
        for v in 0..299u32 {
            el.push(v, v + 1).unwrap();
            el.push(v + 1, v).unwrap();
        }
        let g = Graph::from_edgelist(&el).unwrap();
        let pg = PreparedGraph::new(&g);
        let run = |trace: bool| {
            let prog = MinLabel::new(300);
            let cfg = EngineConfig::new()
                .with_threads(2)
                .with_direction_policy(DirectionPolicy::DensityGate)
                .with_trace(trace);
            let stats = run_program(&pg, &prog, &cfg);
            (prog.labels.to_vec_f64(), stats)
        };
        let (labels_on, stats_on) = run(true);
        let (labels_off, stats_off) = run(false);
        assert_eq!(labels_on, labels_off);
        assert_eq!(stats_on.iterations, stats_off.iterations);
        assert_eq!(stats_on.engine_trace, stats_off.engine_trace);
        // And the recorded density explains every recorded selection —
        // i.e. the trace reports the value the selection actually used.
        for r in &stats_on.records {
            match r.engine {
                EngineKind::Pull => assert!(r.frontier_density >= r.pull_threshold),
                EngineKind::Push => assert!(r.frontier_density < r.pull_threshold),
            }
        }
    }

    /// The cost-model switch (the default policy): every recorded selection
    /// must be explainable from the recorded cost inputs — pull iff
    /// `ALPHA · frontier_edges ≥ unvisited_edges` — and the sparse tail of
    /// a chain must still flip to push.
    #[test]
    fn cost_model_selection_is_explained_by_recorded_costs() {
        let mut el = EdgeList::new(300);
        for v in 0..299u32 {
            el.push(v, v + 1).unwrap();
            el.push(v + 1, v).unwrap();
        }
        let g = Graph::from_edgelist(&el).unwrap();
        let pg = PreparedGraph::new(&g);
        let prog = MinLabel::new(300);
        let cfg = EngineConfig::new().with_threads(2).with_trace(true);
        assert_eq!(cfg.direction_policy, DirectionPolicy::CostModel);
        let stats = run_program(&pg, &prog, &cfg);
        assert!(stats.pull_iterations >= 1, "dense start should pull");
        assert!(stats.push_iterations >= 1, "sparse tail should push");
        for r in &stats.records {
            assert!(r.dir_unvisited_edges > 0, "iteration {}", r.iteration);
            let pull_cheap = crate::direction::ALPHA.saturating_mul(r.dir_frontier_edges)
                >= r.dir_unvisited_edges;
            match r.engine {
                EngineKind::Pull => assert!(pull_cheap, "iteration {}", r.iteration),
                EngineKind::Push => assert!(!pull_cheap, "iteration {}", r.iteration),
            }
        }
        for v in 0..300 {
            assert_eq!(prog.labels.get_f64(v), 0.0);
        }
    }

    /// The scatter policy must be invisible to results: every ScatterMode
    /// yields identical labels through the full driver loop, and push
    /// records report the resolved mode (never Auto) while pull records
    /// report none.
    #[test]
    fn scatter_modes_agree_and_are_traced() {
        use crate::config::ScatterMode;
        let mut el = EdgeList::new(300);
        for v in 0..299u32 {
            el.push(v, v + 1).unwrap();
            el.push(v + 1, v).unwrap();
        }
        let g = Graph::from_edgelist(&el).unwrap();
        let pg = PreparedGraph::new(&g);
        let run = |mode: ScatterMode, threads: usize| {
            let prog = MinLabel::new(300);
            let cfg = EngineConfig::new()
                .with_threads(threads)
                .with_scatter_mode(mode)
                .with_trace(true);
            let stats = run_program(&pg, &prog, &cfg);
            (prog.labels.to_vec_f64(), stats)
        };
        for threads in [1usize, 2] {
            let (atomic_labels, atomic_stats) = run(ScatterMode::Atomic, threads);
            let (spa_labels, spa_stats) = run(ScatterMode::Spa, threads);
            let (auto_labels, auto_stats) = run(ScatterMode::Auto, threads);
            assert_eq!(atomic_labels, spa_labels, "threads={threads}");
            assert_eq!(atomic_labels, auto_labels, "threads={threads}");
            assert_eq!(atomic_stats.engine_trace, spa_stats.engine_trace);
            assert_eq!(atomic_stats.engine_trace, auto_stats.engine_trace);
            assert!(spa_stats.push_iterations >= 1, "sparse tail should push");
            for stats in [&atomic_stats, &spa_stats, &auto_stats] {
                for r in &stats.records {
                    match r.engine {
                        EngineKind::Pull => assert!(r.scatter_mode.is_none()),
                        EngineKind::Push => {
                            let m = r.scatter_mode.expect("push records carry a mode");
                            assert_ne!(m, ScatterMode::Auto, "mode must be resolved");
                        }
                    }
                }
            }
            // Pinned SPA actually routes through the SPA pipeline: its
            // bucket occupancy equals the push traffic; atomic records none.
            assert!(spa_stats.profile.spa_bucket_entries > 0);
            assert_eq!(
                spa_stats.profile.spa_bucket_entries,
                spa_stats.profile.push_updates
            );
            assert_eq!(atomic_stats.profile.spa_bucket_entries, 0);
        }
    }

    #[test]
    fn max_iterations_caps_runaway_programs() {
        let g = two_cycles();
        let pg = PreparedGraph::new(&g);
        struct NeverStop(MinLabel);
        impl GraphProgram for NeverStop {
            fn num_vertices(&self) -> usize {
                self.0.num_vertices()
            }
            fn op(&self) -> AggOp {
                AggOp::Min
            }
            fn edge_values(&self) -> &PropertyArray {
                self.0.edge_values()
            }
            fn accumulators(&self) -> &PropertyArray {
                self.0.accumulators()
            }
            fn apply(&self, v: u32) -> bool {
                self.0.apply(v);
                true // always "active"
            }
            fn uses_frontier(&self) -> bool {
                true
            }
            fn initial_frontier(&self) -> Frontier {
                Frontier::all(self.0.n)
            }
        }
        let prog = NeverStop(MinLabel::new(12));
        let cfg = EngineConfig::new().with_threads(1).with_max_iterations(5);
        let stats = run_program(&pg, &prog, &cfg);
        assert_eq!(stats.iterations, 5);
    }
}
