//! The serve workloads: open-loop traffic against `grazelle_serve::Server`.
//!
//! One generator thread sends requests at seeded exponential arrival times
//! through `Server::submit` / `Server::submit_update`; one collector thread
//! waits on the tickets in admission order. Latency runs from when a
//! request was *due*, so a late generator or a stalled server shows in it.
//! The server exposes no non-blocking poll, so a request that overtakes an
//! earlier one (a packed Reach passing a queued Bfs) is charged until the
//! earlier one finishes: latencies are in-order delivery times.

use crate::batch::{set_engine_layers, set_setup_layers, Job};
use crate::host::{peak_heap_mib, stream_triad_gb_s};
use crate::inputs::{derive_seed, Workload};
use crate::load::setup;
use crate::report::{median, quantile, Report};
use crate::verify::{depth_vector, tree_depths, Digest, Model};
use crate::Ctx;
use grazelle_apps::{bfs, multi_source_reach, Bfs, MAX_LANES};
use grazelle_core::engine::PreparedGraph;
use grazelle_core::{run_resilient_on_pool, EngineConfig, ResilienceContext, VersionedGraph};
use grazelle_graph::delta::UpdateBatch;
use grazelle_graph::graph::Graph;
use grazelle_graph::types::VertexId;
use grazelle_sched::ThreadPool;
use grazelle_serve::{single_shot, Query, QueryResult, ServeConfig, ServeError, Server, Ticket};
use std::collections::HashMap;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Fixed traffic settings of one serve workload, measured once at the
/// commit that introduced the benchmark (see NOTES.md) and kept constant
/// so later runs are comparable.
struct Rates {
    /// About a quarter of capacity (requests/s).
    low: f64,
    /// About three quarters of capacity (requests/s).
    high: f64,
    /// The rate ladder for `serve.max_qps`, ascending (requests/s).
    ladder: &'static [f64],
}

/// p90 latency limit a ladder rung must meet, in ms.
const LIMIT_MS: f64 = 250.0;

/// Requests kept outstanding by the closed loop that measures capacity:
/// one full 64-wide reach pack.
const SATURATION_OUTSTANDING: usize = 64;

/// Seconds per ladder rung.
const RUNG_S: f64 = 1.5;

/// Distinct roots the traffic draws from: enough that the mix's average
/// query cost does not hang on a few roots.
const ROOTS: usize = 256;

/// In serve-write, one request in this many is an update batch (5%).
const UPDATE_EVERY: u64 = 20;

/// Requests of the warm-up: two merging update batches' worth in
/// serve-write.
const WARM_REQUESTS: usize = 2 * 4 * UPDATE_EVERY as usize;

/// Edges per update batch, and deletes in a batch that carries them.
const BATCH_EDGES: usize = 256;
const BATCH_DELETES: usize = 32;

/// Rates of `w`.
fn rates(w: Workload) -> Rates {
    match w {
        Workload::ServeRead => Rates {
            low: 40.0,
            high: 120.0,
            ladder: &[
                80.0, 100.0, 120.0, 140.0, 160.0, 180.0, 200.0, 240.0, 280.0, 320.0, 360.0,
            ],
        },
        _ => Rates {
            low: 12.0,
            high: 36.0,
            ladder: &[
                24.0, 30.0, 36.0, 42.0, 48.0, 54.0, 60.0, 72.0, 84.0, 96.0, 108.0, 120.0,
            ],
        },
    }
}

/// One request of the traffic mix.
#[derive(Debug, Clone)]
enum Request {
    Reach(VertexId),
    Bfs(VertexId),
    Update(UpdateBatch),
}

/// The seeded request stream: about 75% Reach and 25% Bfs over a fixed
/// root set; with writes on, every [`UPDATE_EVERY`]th request is a 256-edge
/// update batch instead, and every fourth batch also deletes existing
/// edges (forcing a merge).
struct Traffic {
    state: u64,
    roots: Vec<VertexId>,
    writes: bool,
    sent: u64,
    updates: u64,
    n: usize,
}

impl Traffic {
    fn next_u64(&mut self) -> u64 {
        self.state = derive_seed(self.state, 11);
        self.state
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn gap_s(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    fn next(&mut self, g: &Graph) -> Request {
        self.sent += 1;
        let u = self.unit();
        let pick = self.next_u64() % self.roots.len() as u64;
        let root = self.roots[pick as usize];
        // Updates sit at fixed positions, so every run sees the same
        // number of them (and of merges) per request sent.
        if self.writes && self.sent.is_multiple_of(UPDATE_EVERY) {
            self.updates += 1;
            Request::Update(self.batch(g))
        } else if u < 0.25 {
            Request::Bfs(root)
        } else {
            Request::Reach(root)
        }
    }

    fn batch(&mut self, g: &Graph) -> UpdateBatch {
        let mut b = UpdateBatch::new();
        let deletes = if self.updates.is_multiple_of(4) {
            BATCH_DELETES
        } else {
            0
        };
        let mut deleted = Vec::new();
        while deleted.len() < deletes {
            let u = (self.next_u64() % self.n as u64) as VertexId;
            let adj = g.out_neighbors(u);
            if !adj.is_empty() {
                let v = adj[(self.next_u64() % adj.len() as u64) as usize];
                b.delete(u, v);
                deleted.push((u, v));
            }
        }
        while b.len() < BATCH_EDGES {
            let u = (self.next_u64() % self.n as u64) as VertexId;
            let v = (self.next_u64() % self.n as u64) as VertexId;
            if u != v && !deleted.contains(&(u, v)) {
                b.insert(u, v);
            }
        }
        b
    }
}

/// What the collector learned about one request.
#[derive(Debug)]
struct Record {
    request: Request,
    /// Sent at one of the named rates (low, high), where failures count.
    named: bool,
    latency_s: f64,
    /// `Ok(None)` for an applied update; `Ok(Some((checked, raw)))` for a
    /// query, where `checked` is compared with the reference search (the
    /// reached set, or the depths a BFS tree implies) and `raw` with a
    /// direct run (the reached set, or the parent array).
    outcome: Result<Option<(Digest, Digest)>, String>,
}

/// Outcome of one phase.
#[derive(Debug, Default)]
struct Phase {
    sent: usize,
    /// Query latencies (s), in send order.
    query_lat: Vec<f64>,
    update_lat: Vec<f64>,
    /// Requests shed, expired, failed, or caught wrong by the collector.
    failed: usize,
    late_max_s: f64,
    submit_s: Vec<f64>,
    queue_max: usize,
    packed: u64,
    reach_done: u64,
    /// Requests completed per second, from the first send to the last
    /// completion.
    throughput: f64,
}

impl Phase {
    fn p(&self, q: f64) -> f64 {
        quantile(&self.query_lat, q)
    }

    /// The ladder's test: nothing failed, p90 within the limit, and no
    /// growing backlog — the last quarter of requests also meets the limit.
    fn meets_limit(&self) -> bool {
        let tail = &self.query_lat[self.query_lat.len() * 3 / 4..];
        self.failed == 0
            && !self.query_lat.is_empty()
            && self.p(0.9) * 1e3 <= LIMIT_MS
            && quantile(tail, 0.9) * 1e3 <= LIMIT_MS
    }
}

/// The running server plus what the collector needs to check answers.
struct Rig<'a> {
    server: &'a Server,
    g: &'a Graph,
    traffic: Traffic,
    /// The collector's model, kept at the version the next request sees.
    model: Model,
    log: Vec<Record>,
}

/// How a phase offers load.
#[derive(Debug, Clone, Copy)]
enum Load {
    /// Open loop: seeded exponential arrivals at this many requests/s.
    Open(f64),
    /// Closed loop: this many requests outstanding, each sent when an
    /// earlier one completes.
    Closed(usize),
}

/// When a phase stops sending.
#[derive(Debug, Clone, Copy)]
enum Until {
    /// After this many seconds.
    Seconds(f64),
    /// After this many requests, however long they take.
    Sent(usize),
}

impl Rig<'_> {
    /// Offers `load` until `until` and collects every request sent.
    fn phase(&mut self, load: Load, until: Until, named: bool) -> Phase {
        let (seconds, cap) = match until {
            Until::Seconds(s) => (s, usize::MAX),
            Until::Sent(n) => (f64::INFINITY, n),
        };
        let before = self.server.stats();
        let (tx, rx) = mpsc::channel::<(Request, Instant, Result<Ticket, ServeError>)>();
        let (token_tx, token_rx) = mpsc::channel::<()>();
        if let Load::Closed(outstanding) = load {
            for _ in 0..outstanding {
                token_tx.send(()).expect("receiver is alive");
            }
        }
        let server = self.server;
        let g = self.g;
        let traffic = &mut self.traffic;
        let model = &mut self.model;
        let log = &mut self.log;
        let mut phase = Phase::default();
        let start = Instant::now();
        let (late_max_s, submit_s, queue_max, sent) = std::thread::scope(|s| {
            let generator = s.spawn(move || {
                let mut due = start;
                let (mut late, mut submits, mut depth, mut sent) = (0f64, Vec::new(), 0, 0);
                while sent < cap {
                    match load {
                        Load::Open(rate) => {
                            due += Duration::from_secs_f64(traffic.gap_s(rate));
                            if due.duration_since(start).as_secs_f64() >= seconds {
                                break;
                            }
                            let now = Instant::now();
                            if due > now {
                                std::thread::sleep(due - now);
                            }
                        }
                        Load::Closed(_) => {
                            if token_rx.recv().is_err() || start.elapsed().as_secs_f64() >= seconds
                            {
                                break;
                            }
                            due = Instant::now();
                        }
                    }
                    let req = traffic.next(g);
                    let t = Instant::now();
                    late = f64::max(late, t.duration_since(due).as_secs_f64());
                    let ticket = match &req {
                        Request::Reach(r) => server.submit(Query::Reach { root: *r }),
                        Request::Bfs(r) => server.submit(Query::Bfs { root: *r }),
                        Request::Update(b) => server.submit_update(b.clone()),
                    };
                    submits.push(t.elapsed().as_secs_f64());
                    depth = depth.max(server.queue_depth());
                    sent += 1;
                    if tx.send((req, due, ticket)).is_err() {
                        break;
                    }
                }
                (late, submits, depth, sent)
            });
            let collector = s.spawn(|| {
                let mut out = Vec::new();
                for (request, due, ticket) in rx {
                    let outcome = ticket.map(Ticket::wait);
                    let latency_s = due.elapsed().as_secs_f64();
                    // Only a closed-loop generator is waiting for this.
                    let _ = token_tx.send(());
                    out.push(collect(model, request, named, latency_s, outcome));
                }
                out
            });
            let gen = generator.join().expect("generator thread");
            log.extend(collector.join().expect("collector thread"));
            gen
        });
        let after = self.server.stats();
        let elapsed_s = start.elapsed().as_secs_f64();
        let new = &self.log[self.log.len() - sent..];
        for r in new {
            match (&r.request, &r.outcome) {
                (Request::Update(_), _) => phase.update_lat.push(r.latency_s),
                _ => phase.query_lat.push(r.latency_s),
            }
            if r.outcome.is_err() {
                phase.failed += 1;
            }
        }
        phase.sent = sent;
        phase.throughput = new.iter().filter(|r| r.outcome.is_ok()).count() as f64 / elapsed_s;
        phase.late_max_s = late_max_s;
        phase.submit_s = submit_s;
        phase.queue_max = queue_max;
        phase.packed = after.packed_queries - before.packed_queries;
        phase.reach_done = new
            .iter()
            .filter(|r| matches!(r.request, Request::Reach(_)) && r.outcome.is_ok())
            .count() as u64;
        phase
    }
}

/// The collector's check of one outcome, against its model at the version
/// the request saw (updates apply in admission order, which is the order
/// the collector walks).
fn collect(
    model: &mut Model,
    request: Request,
    named: bool,
    latency_s: f64,
    outcome: Result<Result<QueryResult, ServeError>, ServeError>,
) -> Record {
    let outcome = match (&request, outcome) {
        (_, Err(e)) | (_, Ok(Err(e))) => Err(format!("error: {e}")),
        (Request::Update(b), Ok(Ok(QueryResult::Updated { .. }))) => {
            model.apply(b);
            Ok(None)
        }
        (Request::Reach(_), Ok(Ok(QueryResult::Reached(r)))) => {
            let d = Digest::of_reached(&r);
            Ok(Some((d, d)))
        }
        (Request::Bfs(root), Ok(Ok(QueryResult::Parents(p)))) => {
            match tree_depths(*root, &p, |u, v| model.has_edge(u, v)) {
                Ok(depths) => Ok(Some((Digest::of_depths(&depths), Digest::of_parents(&p)))),
                Err(e) => Err(format!("wrong: {e}")),
            }
        }
        (_, Ok(Ok(other))) => Err(format!("wrong: unexpected {}", other.describe())),
    };
    Record {
        request,
        named,
        latency_s,
        outcome,
    }
}

/// Checks every logged answer against the reference searches over a fresh
/// model replayed through the same updates, and — when the graph never
/// changed — against a direct `single_shot` run of the same query.
/// Marks each wrong answer in the log.
fn verify_log(log: &mut [Record], g: &Graph, pg: &PreparedGraph, threads: usize) {
    let mut model = Model::of_graph(g);
    let mut version = 0usize;
    let mut reference: HashMap<(bool, VertexId, usize), Digest> = HashMap::new();
    let mut direct: HashMap<(bool, VertexId), Digest> = HashMap::new();
    let pool = ThreadPool::single_group(threads);
    let cfg = EngineConfig::new().with_threads(threads);
    let rctx = ResilienceContext::new();
    for r in log.iter_mut() {
        let (is_bfs, root) = match &r.request {
            Request::Update(b) => {
                if r.outcome.is_ok() {
                    model.apply(b);
                    version += 1;
                }
                continue;
            }
            Request::Bfs(root) => (true, *root),
            Request::Reach(root) => (false, *root),
        };
        let Ok(Some((got, got_raw))) = r.outcome else {
            continue;
        };
        let want = *reference.entry((is_bfs, root, version)).or_insert_with(|| {
            if is_bfs {
                Digest::of_depths(&model.depths(root))
            } else {
                Digest::of_reached(&model.reached(root))
            }
        });
        let mut ok = got == want;
        if version == 0 {
            let d = *direct.entry((is_bfs, root)).or_insert_with(|| {
                let q = if is_bfs {
                    Query::Bfs { root }
                } else {
                    Query::Reach { root }
                };
                match single_shot(g, pg, &cfg, &rctx, &pool, q) {
                    Ok(QueryResult::Parents(p)) => Digest::of_parents(&p),
                    Ok(QueryResult::Reached(x)) => Digest::of_reached(&x),
                    _ => Digest { count: 0, hash: 0 },
                }
            });
            ok &= got_raw == d;
        }
        if !ok {
            r.outcome = Err("wrong: differs from the reference".to_string());
        }
    }
}

/// Seeded roots whose reached set covers at least a quarter of the graph
/// (the giant component's reach). A root in a small component answers
/// almost for free; letting the seed decide how many such roots the mix
/// holds would move capacity between seeds by the root draw alone.
fn pick_roots(g: &Graph, seed: u64) -> Vec<VertexId> {
    let n = g.num_vertices();
    let mut state = derive_seed(seed, 5);
    let mut roots = Vec::with_capacity(ROOTS);
    while roots.len() < ROOTS {
        state = derive_seed(state, 5);
        let v = (state % n as u64) as VertexId;
        if g.out_degree(v) > 0 && bfs::reference_depths(g, v).iter().flatten().count() * 4 >= n {
            roots.push(v);
        }
    }
    roots
}

/// Runs a serve workload and fills `report`.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let rates = rates(ctx.workload);
    let (g, pg, times) = {
        let pool = ThreadPool::single_group(ctx.threads);
        setup(&ctx.input, &pool)?
    };
    let (g, pg) = (Arc::new(g), Arc::new(pg));
    let roots = pick_roots(&g, ctx.seed);
    let engine = EngineConfig::new().with_threads(ctx.threads);
    let server = Server::start(
        Arc::clone(&g),
        Arc::clone(&pg),
        ServeConfig::new().with_engine(engine),
    );
    let traffic = |stream| Traffic {
        state: derive_seed(ctx.seed, stream),
        roots: roots.clone(),
        writes: ctx.workload == Workload::ServeWrite,
        sent: 0,
        updates: 0,
        n: g.num_vertices(),
    };
    let mut rig = Rig {
        server: &server,
        g: &g,
        traffic: traffic(3),
        model: Model::of_graph(&g),
        log: Vec::new(),
    };
    // Warm-up at the high rate: caches, pool threads, allocator. A fixed
    // request count, not a fixed time, so serve-write has always merged
    // twice before anything is measured: from the second merge on, the
    // server builds each merged graph while the previous one and the
    // benchmark's original are alive, so peak memory reaches its steady
    // level there, however many more merges a run makes.
    let warm = rig.phase(Load::Open(rates.high), Until::Sent(WARM_REQUESTS), false);
    // Untraced: the low rate (the requests `attempted` counts), then
    // capacity under a saturating closed loop. Traced: both named rates,
    // then the rate ladder.
    let (named, rate, peak) = if ctx.trace {
        let low = rig.phase(
            Load::Open(rates.low),
            Until::Seconds(ctx.seconds * 0.25),
            true,
        );
        let high = rig.phase(
            Load::Open(rates.high),
            Until::Seconds(ctx.seconds * 0.3),
            true,
        );
        let max_qps = ladder(&mut rig, &rates, ctx.seconds * 0.35);
        (vec![low, high], max_qps, 0.0)
    } else {
        let low = rig.phase(
            Load::Open(rates.low),
            Until::Seconds(ctx.seconds * 0.2),
            true,
        );
        // Peak memory through set-up and the fixed-rate phase. The
        // saturating phase applies as many update batches as its
        // throughput allows, so its memory would move with the speed.
        let peak = peak_heap_mib();
        let saturated = rig.phase(
            Load::Closed(SATURATION_OUTSTANDING),
            Until::Seconds(ctx.seconds * 0.75),
            false,
        );
        (vec![low], saturated.throughput, peak)
    };
    let mut log = std::mem::take(&mut rig.log);
    drop(rig);
    let closing = server.drain();
    verify_log(&mut log, &g, &pg, ctx.threads);
    report.attempted += log.iter().filter(|r| r.named).count() as u64;
    report.failed += log.iter().filter(|r| r.named && r.outcome.is_err()).count() as u64;
    report.wrong += log
        .iter()
        .filter(|r| matches!(&r.outcome, Err(e) if e.starts_with("wrong")))
        .count() as u64;
    let low = &named[0];

    if !ctx.trace {
        report.set("setup_s", times.median_total());
        report.set("peak_heap_mb", peak);
        report.set("max_rate", rate);
        return Ok(());
    }

    let high = &named[1];
    report.set("serve.max_qps", rate);
    report.set("serve.lat_p50_ms.low", low.p(0.5) * 1e3);
    report.set("serve.lat_p90_ms.low", low.p(0.9) * 1e3);
    report.set("serve.lat_p50_ms.high", high.p(0.5) * 1e3);
    report.set("serve.lat_p90_ms.high", high.p(0.9) * 1e3);
    report.set(
        "serve.packed_frac",
        high.packed as f64 / high.reach_done.max(1) as f64,
    );
    report.set("serve.queue_depth.max", high.queue_max as f64);
    report.set("serve.submit_us.p50", median(&high.submit_s) * 1e6);
    report.set("serve.update_lat_ms.p50", median(&high.update_lat) * 1e3);
    report.set("serve.merges", closing.merges as f64);
    report.set(
        "serve.shed",
        (closing.shed_queue + closing.shed_work + closing.shed_draining) as f64,
    );
    report.set("serve.expired", closing.expired as f64);
    report.set(
        "loadgen.late_ms.max",
        [&warm, low, high]
            .iter()
            .map(|p| p.late_max_s)
            .fold(0.0, f64::max)
            * 1e3,
    );
    report.set("loadgen.sent", log.len() as f64);
    set_setup_layers(report, &times, &pg);
    direct_layers(ctx, report, &g, &pg, &roots, traffic(4));
    report.set(
        "fail_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    Ok(())
}

/// Times the served request classes run directly — `single_shot` BFS,
/// 64-wide `multi_source_reach`, `VersionedGraph::apply_batch` — plus the
/// engine's per-superstep records for BFS, traced and untraced, and the
/// bandwidth roof. Served latency minus these is queueing and batching.
fn direct_layers(
    ctx: &Ctx,
    report: &mut Report,
    g: &Arc<Graph>,
    pg: &Arc<PreparedGraph>,
    roots: &[VertexId],
    mut traffic: Traffic,
) {
    const REPS: usize = 8;
    let pool = ThreadPool::single_group(ctx.threads);
    let cfg = EngineConfig::new().with_threads(ctx.threads);
    let rctx = ResilienceContext::new();
    let mut check = |ok: bool| report.count(ok);
    let bfs_ok = |root: VertexId, parents: &[Option<VertexId>]| {
        let want = depth_vector(&bfs::reference_depths(g, root));
        tree_depths(root, parents, |p, v| g.in_neighbors(v).contains(&p)).as_deref()
            == Ok(want.as_slice())
    };

    let mut exec_bfs = Vec::new();
    for &root in &roots[..REPS] {
        let start = Instant::now();
        let res = single_shot(g, pg, &cfg, &rctx, &pool, Query::Bfs { root });
        exec_bfs.push(start.elapsed().as_secs_f64());
        check(matches!(&res, Ok(QueryResult::Parents(p)) if bfs_ok(root, p)));
    }

    let model = Model::of_graph(g);
    let mut exec_reach = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        let mr = multi_source_reach(g, &roots[..MAX_LANES], &pool, None);
        exec_reach.push(start.elapsed().as_secs_f64());
        check(mr.is_some_and(|mr| {
            roots[..MAX_LANES]
                .iter()
                .enumerate()
                .all(|(lane, &r)| mr.reached(lane) == model.reached(r))
        }));
    }

    let mut vg = VersionedGraph::new(Arc::clone(g), Arc::clone(pg));
    let mut exec_update = Vec::new();
    for _ in 0..REPS {
        traffic.updates += 1;
        let batch = traffic.batch(g);
        let start = Instant::now();
        let res = vg.apply_batch(&batch, &pool);
        exec_update.push(start.elapsed().as_secs_f64());
        check(res.is_ok());
    }
    drop(vg);

    let mut job = |cfg: &EngineConfig, pool: &ThreadPool, root: VertexId| -> Option<Job> {
        let prog = Bfs::new(g.num_vertices(), root);
        let start = Instant::now();
        let run = run_resilient_on_pool(pg, &prog, cfg, &rctx, pool);
        let wall_s = start.elapsed().as_secs_f64();
        let parents = prog.parents();
        check(run.is_ok() && bfs_ok(root, &parents));
        let edges = parents
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_some())
            .map(|(v, _)| g.out_degree(v as VertexId) as u64)
            .sum();
        Some(Job {
            wall_s,
            stats: run.ok()?.stats,
            edges,
        })
    };
    // Untraced and traced runs alternate over the same roots.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for &root in &roots[..REPS] {
        plain.extend(job(&cfg, &pool, root));
        traced.extend(job(&cfg.with_trace(true), &pool, root));
    }
    let one = ThreadPool::single_group(1);
    let single = job(&cfg.with_threads(1), &one, roots[0]);
    drop((pool, one));

    let stream = stream_triad_gb_s(ctx.stream_len(), &[1, ctx.threads], 5);
    set_engine_layers(report, &plain, &traced, ctx.threads, stream[1]);
    let scaling = match (single, plain.first()) {
        (Some(one), Some(two)) => one.wall_s / (2.0 * two.wall_s),
        _ => 0.0,
    };
    report.set("sched.scaling_eff", scaling);
    report.set("host.stream_gb_s.t1", stream[0]);
    report.set("host.stream_gb_s.t2", stream[1]);
    report.set("serve.exec_ms.bfs", median(&exec_bfs) * 1e3);
    report.set("serve.exec_ms.reach64", median(&exec_reach) * 1e3);
    report.set("serve.exec_ms.update", median(&exec_update) * 1e3);
}

/// Climbs the ladder from the first rung at or above the high rate: up
/// while rungs meet the limit, down while they miss it. Returns the
/// highest rung that met it (half the lowest rung when none did). Runs at
/// least one rung, and no rung past `budget_s`.
fn ladder(rig: &mut Rig<'_>, rates: &Rates, budget_s: f64) -> f64 {
    let start = Instant::now();
    let top = rates.ladder.len() - 1;
    let mut i = rates
        .ladder
        .iter()
        .position(|&r| r >= rates.high)
        .unwrap_or(top);
    let mut best: Option<usize> = None;
    loop {
        if rig
            .phase(Load::Open(rates.ladder[i]), Until::Seconds(RUNG_S), false)
            .meets_limit()
        {
            best = Some(i);
            if i == top {
                break;
            }
            i += 1;
        } else {
            if best.is_some() || i == 0 {
                break;
            }
            i -= 1;
        }
        if start.elapsed().as_secs_f64() + RUNG_S > budget_s {
            break;
        }
    }
    best.map_or(rates.ladder[0] / 2.0, |b| rates.ladder[b])
}
