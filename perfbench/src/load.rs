//! Set-up: text file on disk → `PreparedGraph`, through the public path a
//! user takes (`load_text_parallel`, then `prepare_profiled`).

use crate::report::median;
use grazelle_core::engine::PreparedGraph;
use grazelle_core::prepare_profiled;
use grazelle_graph::graph::Graph;
use grazelle_graph::io::load_text_parallel;
use grazelle_sched::ThreadPool;
use std::path::Path;
use std::time::Instant;

/// Per-repetition set-up timings, in seconds.
#[derive(Debug, Default)]
pub struct SetupTimes {
    /// Whole set-up: read + parse + CSR + CSC + Vector-Sparse.
    pub total: Vec<f64>,
    /// Read + parse.
    pub parse: Vec<f64>,
    /// By-source CSR (from `BuildProfile`).
    pub csr: Vec<f64>,
    /// By-destination CSC (from `BuildProfile`).
    pub csc: Vec<f64>,
    /// Both Vector-Sparse orientations (from `BuildProfile`).
    pub vsparse: Vec<f64>,
    /// Size of the text input.
    pub input_bytes: u64,
}

impl SetupTimes {
    /// Median whole set-up time.
    pub fn median_total(&self) -> f64 {
        median(&self.total)
    }
}

/// Set-up repetitions: about 400 MB of text in all, and 3 to 15 of them,
/// so small inputs get a steadier median. The count depends only on the
/// input (not on elapsed time), so the allocation history before the jobs
/// — and with it peak memory — repeats from run to run.
fn repetitions(input_bytes: u64) -> usize {
    (400_000_000 / input_bytes.max(1)).clamp(3, 15) as usize
}

/// Loads and prepares `path` on `pool` [`repetitions`] times and keeps the
/// last result. Each repetition drops the previous graph first, so peak
/// memory is that of one set-up.
pub fn setup(path: &Path, pool: &ThreadPool) -> Result<(Graph, PreparedGraph, SetupTimes), String> {
    let mut times = SetupTimes {
        input_bytes: std::fs::metadata(path).map_err(|e| e.to_string())?.len(),
        ..SetupTimes::default()
    };
    let mut last = None;
    for _ in 0..repetitions(times.input_bytes) {
        drop(last.take());
        let start = Instant::now();
        let el = load_text_parallel(path, pool).map_err(|e| e.to_string())?;
        let parsed = start.elapsed().as_secs_f64();
        let (g, pg, profile) = prepare_profiled(&el, pool).map_err(|e| e.to_string())?;
        times.total.push(start.elapsed().as_secs_f64());
        times.parse.push(parsed);
        times.csr.push(profile.csr_ns as f64 * 1e-9);
        times.csc.push(profile.csc_ns as f64 * 1e-9);
        times.vsparse.push(profile.vsparse_ns as f64 * 1e-9);
        last = Some((g, pg));
    }
    let (g, pg) = last.expect("at least one repetition");
    Ok((g, pg, times))
}
