//! Smoke test of the benchmark itself, at the tiny scale: every workload
//! emits every metric `BENCHMARK.json` names, with its unit; a wrong result
//! given to the checks counts as failed; and the seed changes the inputs
//! but not the set of metrics.

use grazelle_apps::{bfs, pagerank};
use grazelle_bench::json::Json;
use grazelle_core::engine::PreparedGraph;
use grazelle_core::EngineConfig;
use grazelle_graph::graph::Graph;
use grazelle_perfbench::inputs::{generate, Workload};
use grazelle_perfbench::report::{Report, END_TO_END, PER_LAYER};
use grazelle_perfbench::verify::{depth_vector, ranks_match, tree_depths, Digest, Model};
use grazelle_sched::ThreadPool;
use std::process::Command;

/// Parses a JSON document.
fn parse(text: &str) -> Json {
    Json::parse(text).unwrap_or_else(|e| panic!("bad JSON: {e}"))
}

/// Member `key` of an object, which must be there.
fn get<'a>(v: &'a Json, key: &str) -> &'a Json {
    v.get(key).unwrap_or_else(|| panic!("no key {key}"))
}

/// String member `key` of an object.
fn get_str<'a>(v: &'a Json, key: &str) -> &'a str {
    get(v, key)
        .as_str()
        .unwrap_or_else(|| panic!("{key} is not a string"))
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
}

/// `(name, unit)` of the metrics `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let doc = benchmark_json();
    let list = get(&doc, key)
        .as_arr()
        .unwrap_or_else(|| panic!("{key} is not a list"));
    list.iter()
        .map(|m| {
            (
                get_str(m, "name").to_string(),
                get_str(m, "unit").to_string(),
            )
        })
        .collect()
}

/// Runs the benchmark binary at the tiny scale and parses its result line.
fn run(workload: &str, seed: u64, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_grazelle-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "1",
            "--trace",
            if trace { "1" } else { "0" },
            "--tiny",
        ])
        .output()
        .expect("benchmark runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload}: {stderr}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    parse(stdout.lines().last().expect("a result line"))
}

/// `(name, unit)` of every metric in a result line, sorted by name.
fn metric_units(result: &Json) -> Vec<(String, String)> {
    let Json::Obj(m) = get(result, "metrics") else {
        panic!("metrics is not an object");
    };
    let mut units: Vec<_> = m
        .iter()
        .map(|(name, v)| {
            assert!(
                matches!(get(v, "value"), Json::Num(x) if x.is_finite()),
                "{name}"
            );
            (name.clone(), get_str(v, "unit").to_string())
        })
        .collect();
    units.sort();
    assert!(
        units.windows(2).all(|p| p[0].0 != p[1].0),
        "duplicate metric"
    );
    units
}

#[test]
fn registry_matches_benchmark_json() {
    let own = |list: &[(&str, &str)]| {
        let mut v: Vec<_> = list
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        v.sort();
        v
    };
    let sorted = |mut v: Vec<(String, String)>| {
        v.sort();
        v
    };
    assert_eq!(sorted(declared("end_to_end")), own(END_TO_END));
    assert_eq!(sorted(declared("per_layer")), own(PER_LAYER));
    let doc = benchmark_json();
    let names: Vec<_> = get(&doc, "workloads")
        .as_arr()
        .expect("workloads is a list")
        .iter()
        .map(|w| get_str(w, "name").to_string())
        .collect();
    // Every listed workload exists; the batch workloads run but are not
    // listed, because their spread on a shared host exceeds any allowed
    // bound (NOTES.md).
    let ours: Vec<_> = Workload::ALL
        .iter()
        .filter(|w| w.is_serve())
        .map(|w| w.name().to_string())
        .collect();
    assert_eq!(names, ours);
}

#[test]
fn every_workload_emits_every_metric_and_the_seed_changes_only_inputs() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let key = if trace { "per_layer" } else { "end_to_end" };
            let mut want = declared(key);
            want.sort();
            let a = run(w.name(), 1, trace);
            assert_eq!(metric_units(&a), want, "{} trace={trace}", w.name());
            assert_eq!(get(&a, "correct"), &Json::Bool(true), "{}", w.name());
            assert_eq!(get(&a, "failed"), &Json::Num(0.0), "{}", w.name());
            assert!(matches!(get(&a, "attempted"), Json::Num(n) if *n >= 1.0));
            if !trace {
                let b = run(w.name(), 2, trace);
                assert_eq!(metric_units(&b), want, "{} seed 2", w.name());
            }
        }
        assert_ne!(
            generate(w, 1, true).edges(),
            generate(w, 2, true).edges(),
            "{}: the seed must change the input",
            w.name()
        );
    }
}

fn tiny_graph() -> (Graph, PreparedGraph) {
    let g = Graph::from_edgelist(&generate(Workload::ServeRead, 3, true)).unwrap();
    let pg = PreparedGraph::new(&g);
    (g, pg)
}

#[test]
fn a_wrong_result_counts_as_failed() {
    let (g, pg) = tiny_graph();
    let pool = ThreadPool::single_group(2);
    let cfg = EngineConfig::new().with_threads(2);
    let mut report = Report::default();

    // PageRank: one rank nudged.
    let (mut ranks, _) = pagerank::run_prepared(&pg, &g, &cfg, &pool, 4);
    let want = pagerank::reference(&g, pagerank::DAMPING, 4);
    report.count(ranks_match(&ranks, &want));
    ranks[7] *= 1.001;
    report.count(ranks_match(&ranks, &want));

    // BFS: a reached vertex re-parented onto a non-neighbour.
    let root = (0..g.num_vertices() as u32)
        .max_by_key(|&v| g.out_degree(v))
        .unwrap();
    let (mut parents, _) = bfs::run_prepared(&pg, &cfg, &pool, root);
    let want = depth_vector(&bfs::reference_depths(&g, root));
    let check = |p: &[Option<u32>]| {
        tree_depths(root, p, |u, v| g.in_neighbors(v).contains(&u)).as_deref()
            == Ok(want.as_slice())
    };
    report.count(check(&parents));
    let v = (0..parents.len())
        .find(|&v| v != root as usize && parents[v].is_some())
        .unwrap();
    let stranger = (0..g.num_vertices() as u32)
        .find(|&u| !g.in_neighbors(v as u32).contains(&u) && u as usize != v)
        .unwrap();
    parents[v] = Some(stranger);
    report.count(check(&parents));

    // Reach: one extra vertex.
    let model = Model::of_graph(&g);
    let mut reached = model.reached(root);
    let want = Digest::of_reached(&reached);
    report.count(Digest::of_reached(&reached) == want);
    let outside = reached.iter().position(|&r| !r).unwrap();
    reached[outside] = true;
    report.count(Digest::of_reached(&reached) == want);

    assert_eq!((report.attempted, report.failed, report.wrong), (6, 3, 3));
    for (name, _) in END_TO_END {
        report.set(name, 1.0);
    }
    let line = parse(&report.to_json(false).unwrap());
    assert_eq!(get(&line, "correct"), &Json::Bool(false));
    assert_eq!(get(&line, "failed"), &Json::Num(3.0));
}
