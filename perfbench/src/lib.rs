//! The repository's benchmark: seeded text input → load → supersteps →
//! served queries, with end-to-end metrics from an untraced run and
//! per-layer metrics from a traced one. See NOTES.md.

mod batch;
pub mod host;
pub mod inputs;
mod load;
pub mod report;
mod serve;
pub mod verify;

use inputs::Workload;
use std::path::PathBuf;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Smoke-test size: small graphs and a small bandwidth probe.
    pub tiny: bool,
    /// Engine, build and server pool width: 2, or fewer cores if the host
    /// has fewer.
    pub threads: usize,
    /// The generated text edge list.
    pub input: PathBuf,
}

impl Ctx {
    /// Elements per STREAM array.
    pub fn stream_len(&self) -> usize {
        if self.tiny {
            1 << 16
        } else {
            host::STREAM_LEN
        }
    }
}

/// Runs the workload and returns what it measured.
pub fn run(ctx: &Ctx) -> Result<report::Report, String> {
    let mut report = report::Report::default();
    if ctx.workload.is_serve() {
        serve::run(ctx, &mut report)?;
    } else {
        batch::run(ctx, &mut report)?;
    }
    Ok(report)
}
