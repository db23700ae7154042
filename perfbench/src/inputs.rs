//! Workloads and their seeded inputs.
//!
//! Each input is the repository's own dataset stand-in (R-MAT for the
//! twitter-2010 stand-in, the partial mesh for dimacs-usa) at a fixed scale
//! shift, with the generator seed replaced by one derived from `--seed`.
//! The benchmark writes it as a text edge list; the program under test
//! only ever sees that file.

use grazelle_graph::edgelist::EdgeList;
use grazelle_graph::gen::datasets::{Dataset, DatasetSpec};
use grazelle_graph::gen::grid::grid_mesh;
use grazelle_graph::gen::rmat::rmat;
use std::path::Path;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// PageRank, fixed iterations, on the twitter-2010 stand-in at +4.
    PrSocial,
    /// BFS to convergence on the dimacs-usa stand-in at +4.
    BfsRoad,
    /// Open-loop Reach/Bfs traffic on the twitter-2010 stand-in at +0.
    ServeRead,
    /// The serve-read mix with about 5% of requests turned into updates.
    ServeWrite,
}

impl Workload {
    /// Every workload; `BENCHMARK.json` lists the serve workloads, in this
    /// order.
    pub const ALL: [Workload; 4] = [
        Workload::PrSocial,
        Workload::BfsRoad,
        Workload::ServeRead,
        Workload::ServeWrite,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PrSocial => "pr-social",
            Workload::BfsRoad => "bfs-road",
            Workload::ServeRead => "serve-read",
            Workload::ServeWrite => "serve-write",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload is served traffic rather than batch jobs.
    pub fn is_serve(self) -> bool {
        matches!(self, Workload::ServeRead | Workload::ServeWrite)
    }

    fn dataset(self) -> Dataset {
        match self {
            Workload::BfsRoad => Dataset::DimacsUsa,
            _ => Dataset::Twitter2010,
        }
    }

    /// Scale shift of the stand-in (`tiny` is the smoke-test size).
    pub fn scale_shift(self, tiny: bool) -> i32 {
        match (self, tiny) {
            (_, true) => -4,
            (Workload::PrSocial | Workload::BfsRoad, false) => 4,
            (Workload::ServeRead | Workload::ServeWrite, false) => 0,
        }
    }
}

/// Mixes the benchmark seed with a per-stream constant (splitmix64), so the
/// graph, the roots and the traffic draw from unrelated streams.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates the workload's graph for `seed`: the dataset stand-in's own
/// generator and parameters at the workload's scale, seed substituted.
/// The pr-social input takes about 14 s on the reference machine.
pub fn generate(w: Workload, seed: u64, tiny: bool) -> EdgeList {
    let shift = w.scale_shift(tiny);
    let graph_seed = derive_seed(seed, 1);
    match w.dataset().spec() {
        DatasetSpec::Rmat(mut cfg) => {
            cfg.scale = (cfg.scale as i64 + shift as i64).clamp(4, 26) as u32;
            cfg.seed = graph_seed;
            rmat(&cfg)
        }
        DatasetSpec::Grid {
            width,
            height,
            keep_prob,
            ..
        } => {
            // Scaled the way `Dataset::build_scaled` scales the mesh.
            let factor = 2f64.powf(shift as f64 / 2.0);
            let width = ((width as f64 * factor).round() as usize).max(2);
            let height = ((height as f64 * factor).round() as usize).max(2);
            grid_mesh(width, height, keep_prob, graph_seed)
        }
    }
}

/// Generates the workload's graph and writes it to `path` as a text edge
/// list.
pub fn write_input(w: Workload, seed: u64, tiny: bool, path: &Path) -> Result<(), String> {
    let el = generate(w, seed, tiny);
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    grazelle_graph::io::write_text_edgelist(&el, file).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_the_graph_and_is_repeatable() {
        for w in Workload::ALL {
            let a = generate(w, 1, true);
            assert_eq!(a.edges(), generate(w, 1, true).edges(), "{}", w.name());
            assert_ne!(a.edges(), generate(w, 2, true).edges(), "{}", w.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }
}
