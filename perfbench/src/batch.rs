//! The batch workloads: back-to-back analytics jobs, one client.
//!
//! pr-social runs PageRank for a fixed 16 iterations; bfs-road runs BFS to
//! convergence from seeded roots near the centre of the mesh, inside its
//! giant component. Each job goes through `apps::*::run_prepared` on the
//! benchmark's pool and is checked against the sequential reference.

use crate::host::{peak_heap_mib, stream_triad_gb_s};
use crate::inputs::{derive_seed, Workload};
use crate::load::{setup, SetupTimes};
use crate::report::{median, Report};
use crate::verify::{depth_vector, ranks_match, tree_depths, UNREACHED};
use crate::Ctx;
use grazelle_apps::{bfs, pagerank};
use grazelle_core::engine::PreparedGraph;
use grazelle_core::{EngineConfig, EngineKind, ExecutionStats};
use grazelle_graph::graph::Graph;
use grazelle_graph::types::VertexId;
use grazelle_sched::ThreadPool;
use std::time::Instant;

/// PageRank iterations per pr-social job.
const PR_ITERATIONS: usize = 16;

/// Jobs per run at the least, however long they take.
const MIN_JOBS: usize = 3;

/// One finished job.
pub(crate) struct Job {
    pub(crate) wall_s: f64,
    pub(crate) stats: ExecutionStats,
    /// Edges the job processed: iterations × |E| for PageRank, the edges
    /// leaving reached vertices for BFS.
    pub(crate) edges: u64,
}

/// The job a batch workload repeats, with what checking it needs.
enum Kind {
    PageRank { want: Vec<f64> },
    Bfs { roots: RootPicker },
}

/// Seeded BFS roots: vertices near the mesh centre, inside the giant
/// component. A root's eccentricity sets the superstep count, and it
/// doubles from the centre of the mesh to a corner; drawing roots from the
/// centre keeps every job near the graph radius, so the spread between
/// runs reflects the system rather than the root draw.
struct RootPicker {
    state: u64,
    /// Root of each job index so far.
    picked: Vec<VertexId>,
    /// Reference depths of the most recent root asked for, so a run keeps
    /// one reference vector, not one per job.
    last: Option<(usize, Vec<u32>)>,
}

impl RootPicker {
    /// Root of job `job` and its reference depths.
    fn root(&mut self, g: &Graph, job: usize) -> (VertexId, &[u32]) {
        let n = g.num_vertices();
        // The road mesh is square and numbered row-major.
        let side = (n as f64).sqrt().round() as usize;
        let b = (side / 10).max(1);
        while self.picked.len() <= job {
            self.state = derive_seed(self.state, 7);
            let x = (side - b) / 2 + (self.state % b as u64) as usize;
            let y = (side - b) / 2 + ((self.state >> 32) % b as u64) as usize;
            let v = y * side + x;
            if v >= n {
                continue;
            }
            let depths = depth_vector(&bfs::reference_depths(g, v as VertexId));
            if depths.iter().filter(|&&d| d != UNREACHED).count() * 2 >= n {
                self.picked.push(v as VertexId);
                self.last = Some((self.picked.len() - 1, depths));
            }
        }
        let root = self.picked[job];
        if self.last.as_ref().is_none_or(|(j, _)| *j != job) {
            self.last = Some((job, depth_vector(&bfs::reference_depths(g, root))));
        }
        let (_, depths) = self.last.as_ref().expect("filled above");
        (root, depths)
    }
}

/// Runs job `index` and checks its result; `false` marks a wrong answer.
fn run_job(
    kind: &mut Kind,
    g: &Graph,
    pg: &PreparedGraph,
    cfg: &EngineConfig,
    pool: &ThreadPool,
    index: usize,
) -> (Job, bool) {
    match kind {
        Kind::PageRank { want } => {
            let start = Instant::now();
            let (ranks, stats) = pagerank::run_prepared(pg, g, cfg, pool, PR_ITERATIONS);
            let wall_s = start.elapsed().as_secs_f64();
            let job = Job {
                wall_s,
                edges: stats.iterations as u64 * g.num_edges() as u64,
                stats,
            };
            (job, ranks_match(&ranks, want))
        }
        Kind::Bfs { roots } => {
            let (root, want) = roots.root(g, index);
            // The default 1000-superstep cap stops a road BFS early without
            // a warning (see NOTES.md); run to convergence.
            let cfg = cfg.with_max_iterations(g.num_vertices().max(1));
            let start = Instant::now();
            let (parents, stats) = bfs::run_prepared(pg, &cfg, pool, root);
            let wall_s = start.elapsed().as_secs_f64();
            let got = tree_depths(root, &parents, |p, v| g.in_neighbors(v).contains(&p));
            let edges = parents
                .iter()
                .enumerate()
                .filter(|(_, p)| p.is_some())
                .map(|(v, _)| g.out_degree(v as VertexId) as u64)
                .sum();
            let job = Job {
                wall_s,
                stats,
                edges,
            };
            (job, got.as_deref() == Ok(want))
        }
    }
}

/// Runs rounds of jobs until `seconds` have passed (and at least
/// [`MIN_JOBS`] rounds): round `i` runs job `i` once under each of `cfgs`,
/// so the configurations see the same roots and the same drift in host
/// load. Returns the jobs of each configuration.
fn run_jobs(
    kind: &mut Kind,
    g: &Graph,
    pg: &PreparedGraph,
    cfgs: &[EngineConfig],
    pool: &ThreadPool,
    seconds: f64,
    report: &mut Report,
) -> Vec<Vec<Job>> {
    let start = Instant::now();
    let mut jobs: Vec<Vec<Job>> = cfgs.iter().map(|_| Vec::new()).collect();
    let mut round = 0;
    while round < MIN_JOBS || start.elapsed().as_secs_f64() < seconds {
        for (cfg, out) in cfgs.iter().zip(&mut jobs) {
            let (job, correct) = run_job(kind, g, pg, cfg, pool, round);
            report.count(correct);
            out.push(job);
        }
        round += 1;
    }
    jobs
}

/// Runs a batch workload and fills `report`.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let pool = ThreadPool::single_group(ctx.threads);
    let (g, pg, times) = setup(&ctx.input, &pool)?;
    let cfg = EngineConfig::new().with_threads(ctx.threads);
    let mut kind = match ctx.workload {
        Workload::PrSocial => Kind::PageRank {
            want: pagerank::reference(&g, pagerank::DAMPING, PR_ITERATIONS),
        },
        Workload::BfsRoad => Kind::Bfs {
            roots: RootPicker {
                state: derive_seed(ctx.seed, 2),
                picked: Vec::new(),
                last: None,
            },
        },
        _ => unreachable!("serve workloads run in serve.rs"),
    };

    if !ctx.trace {
        let jobs = run_jobs(&mut kind, &g, &pg, &[cfg], &pool, ctx.seconds, report).remove(0);
        let walls: Vec<f64> = jobs.iter().map(|j| j.wall_s).collect();
        report.set("setup_s", times.median_total());
        report.set("peak_heap_mb", peak_heap_mib());
        report.set("max_rate", jobs.len() as f64 / walls.iter().sum::<f64>());
        return Ok(());
    }

    set_setup_layers(report, &times, &pg);
    // Untraced and traced jobs alternate: their ratio is the recorder's
    // overhead, and the untraced jobs give the throughput figures.
    let cfgs = [cfg, cfg.with_trace(true)];
    let mut jobs = run_jobs(&mut kind, &g, &pg, &cfgs, &pool, ctx.seconds, report);
    let (traced, plain) = (jobs.remove(1), jobs.remove(0));
    // Scaling: the first job again on one thread.
    let one = ThreadPool::single_group(1);
    let (single, correct) = run_job(&mut kind, &g, &pg, &cfg.with_threads(1), &one, 0);
    report.count(correct);
    drop((g, pg));

    let stream = stream_triad_gb_s(ctx.stream_len(), &[1, ctx.threads], 5);
    set_engine_layers(report, &plain, &traced, ctx.threads, stream[1]);
    report.set("sched.scaling_eff", single.wall_s / (2.0 * plain[0].wall_s));
    report.set("host.stream_gb_s.t1", stream[0]);
    report.set("host.stream_gb_s.t2", stream[1]);
    report.set("loadgen.sent", (plain.len() + traced.len() + 1) as f64);
    report.set("loadgen.late_ms.max", 0.0);
    for name in [
        "serve.exec_ms.bfs",
        "serve.exec_ms.reach64",
        "serve.exec_ms.update",
        "serve.packed_frac",
        "serve.queue_depth.max",
        "serve.submit_us.p50",
        "serve.merges",
        "serve.shed",
        "serve.expired",
        "serve.update_lat_ms.p50",
        "serve.max_qps",
        "serve.lat_p50_ms.low",
        "serve.lat_p90_ms.low",
        "serve.lat_p50_ms.high",
        "serve.lat_p90_ms.high",
    ] {
        report.set(name, 0.0);
    }
    report.set("fail_frac", report.failed as f64 / report.attempted as f64);
    Ok(())
}

/// The `graph` and `vsparse` layer metrics of a set-up.
pub(crate) fn set_setup_layers(report: &mut Report, times: &SetupTimes, pg: &PreparedGraph) {
    let parse = median(&times.parse);
    report.set("graph.parse_s", parse);
    report.set(
        "graph.parse_mb_per_s",
        times.input_bytes as f64 / 1e6 / parse,
    );
    report.set("graph.csr_s", median(&times.csr));
    report.set("graph.csc_s", median(&times.csc));
    report.set("vsparse.build_s", median(&times.vsparse));
    report.set("vsparse.packing_eff", pg.vsd.packing_efficiency());
    // 32-byte edge vectors plus the 8-byte vertex index, both orientations.
    let bytes = |vectors: usize, vertices: usize| 32 * vectors + 8 * (vertices + 1);
    report.set(
        "vsparse.edge_bytes",
        (bytes(pg.vsd.num_vectors(), pg.vsd.num_vertices())
            + bytes(pg.vss.num_vectors(), pg.vss.num_vertices())) as f64,
    );
}

/// Computed (not measured) memory traffic of one run's Edge phases, from
/// its per-superstep records: a pull superstep moves 64 bytes per edge
/// vector (the 32-byte vector and four 8-byte source-value gathers) plus 8
/// bytes per accumulator store; a push superstep moves 24 bytes per update
/// (the 8-byte edge lane and an 8-byte read and write of the destination
/// accumulator).
fn computed_edge_bytes(stats: &ExecutionStats) -> f64 {
    stats
        .records
        .iter()
        .map(|r| match r.engine {
            EngineKind::Pull => 64 * r.vectors + 8 * r.updates,
            EngineKind::Push => 24 * r.updates,
        })
        .sum::<u64>() as f64
}

/// The `engine`, `sched` and `trace` layer metrics of a set of jobs.
/// `plain` ran untraced, `traced` with the flight recorder on.
pub(crate) fn set_engine_layers(
    report: &mut Report,
    plain: &[Job],
    traced: &[Job],
    threads: usize,
    stream_gb_s: f64,
) {
    let med = |f: &dyn Fn(&Job) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let secs = |d: std::time::Duration| d.as_secs_f64();
    report.set("engine.supersteps", med(&|j| j.stats.iterations as f64));
    report.set(
        "engine.pull_steps",
        med(&|j| j.stats.pull_iterations as f64),
    );
    report.set(
        "engine.push_steps",
        med(&|j| j.stats.push_iterations as f64),
    );
    report.set(
        "engine.compacted_steps",
        med(&|j| j.stats.records.iter().filter(|r| r.pull_compacted).count() as f64),
    );
    report.set("engine.edge_s", med(&|j| secs(j.stats.profile.edge_wall)));
    report.set("engine.work_s", med(&|j| secs(j.stats.profile.work)));
    report.set("engine.vertex_s", med(&|j| secs(j.stats.profile.write)));
    report.set(
        "engine.other_s",
        med(&|j| j.wall_s - secs(j.stats.profile.edge_wall) - secs(j.stats.profile.write)),
    );
    report.set(
        "engine.vectors",
        med(&|j| j.stats.profile.vectors_processed as f64),
    );
    report.set(
        "engine.direct_stores",
        med(&|j| j.stats.profile.direct_stores as f64),
    );
    report.set(
        "engine.merge_entries",
        med(&|j| j.stats.profile.merge_entries as f64),
    );
    report.set(
        "engine.push_updates",
        med(&|j| j.stats.profile.push_updates as f64),
    );
    report.set(
        "engine.spa_entries",
        med(&|j| j.stats.profile.spa_bucket_entries as f64),
    );
    report.set("sched.merge_s", med(&|j| secs(j.stats.profile.merge)));
    report.set("sched.idle_s", med(&|j| secs(j.stats.profile.idle)));
    report.set(
        "sched.idle_frac",
        med(&|j| {
            let wall = secs(j.stats.profile.edge_wall) * threads as f64;
            if wall > 0.0 {
                secs(j.stats.profile.idle) / wall
            } else {
                0.0
            }
        }),
    );
    let bytes_per_edge = med(&|j| computed_edge_bytes(&j.stats) / j.edges.max(1) as f64);
    report.set("engine.bytes_per_edge", bytes_per_edge);
    let plain_wall = median(&plain.iter().map(|j| j.wall_s).collect::<Vec<_>>());
    let edges_per_s = median(
        &plain
            .iter()
            .map(|j| j.edges as f64 / j.wall_s)
            .collect::<Vec<_>>(),
    );
    report.set("engine.medges_per_s", edges_per_s / 1e6);
    report.set(
        "engine.roof_frac",
        edges_per_s * bytes_per_edge / (stream_gb_s * 1e9),
    );
    report.set(
        "trace.overhead",
        median(&traced.iter().map(|j| j.wall_s).collect::<Vec<_>>()) / plain_wall,
    );
}
