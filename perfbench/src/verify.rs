//! Output checks. Every job and every served request is checked; each
//! mismatch counts as a failed operation.

use grazelle_graph::delta::UpdateBatch;
use grazelle_graph::graph::Graph;
use grazelle_graph::types::VertexId;

/// Depth of an unreached vertex in the depth vectors below.
pub const UNREACHED: u32 = u32::MAX;

/// PageRank agreement: engine and sequential reference differ only in
/// floating-point summation order.
pub fn ranks_match(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| (a - b).abs() <= 1e-12 + 1e-9 * b.abs())
}

/// Checks that `parents` is a BFS tree rooted at `root`: the root is its
/// own parent, every other parent reaches its child over a real edge
/// (`has_edge(parent, child)`), and the tree has no cycle. Returns the
/// depth of every vertex (`UNREACHED` where there is no parent), which
/// equals the reference depths exactly when the tree is a shortest-path
/// tree.
pub fn tree_depths(
    root: VertexId,
    parents: &[Option<VertexId>],
    has_edge: impl Fn(VertexId, VertexId) -> bool,
) -> Result<Vec<u32>, String> {
    let n = parents.len();
    if root as usize >= n || parents[root as usize] != Some(root) {
        return Err(format!("root {root} is not its own parent"));
    }
    for (v, p) in parents.iter().enumerate() {
        if let Some(p) = *p {
            if v != root as usize && ((p as usize) >= n || !has_edge(p, v as VertexId)) {
                return Err(format!("vertex {v}: parent {p} has no edge to it"));
            }
        }
    }
    let mut depth = vec![UNREACHED; n];
    depth[root as usize] = 0;
    let mut on_path = vec![false; n];
    let mut path = Vec::new();
    for v in 0..n {
        if parents[v].is_none() || depth[v] != UNREACHED {
            continue;
        }
        // Walk up to a vertex of known depth, then unwind.
        let mut u = v;
        while depth[u] == UNREACHED {
            if on_path[u] {
                return Err(format!("parent cycle through vertex {u}"));
            }
            on_path[u] = true;
            path.push(u);
            u = match parents[u] {
                Some(p) => p as usize,
                None => return Err(format!("vertex {v}: ancestor {u} is unreached")),
            };
        }
        let mut d = depth[u];
        while let Some(w) = path.pop() {
            d += 1;
            depth[w] = d;
            on_path[w] = false;
        }
    }
    Ok(depth)
}

/// Reference depths in the vector form [`tree_depths`] returns.
pub fn depth_vector(reference: &[Option<u32>]) -> Vec<u32> {
    reference.iter().map(|d| d.unwrap_or(UNREACHED)).collect()
}

/// Compact fingerprint of a result, so the collector keeps no result
/// vectors while traffic runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest {
    /// Reached vertices.
    pub count: u64,
    /// FNV-1a over the result words.
    pub hash: u64,
}

impl Digest {
    fn of(words: impl Iterator<Item = u64>, count: u64) -> Digest {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in words {
            for b in w.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        Digest { count, hash: h }
    }

    /// Digest of a reached set.
    pub fn of_reached(reached: &[bool]) -> Digest {
        let count = reached.iter().filter(|&&r| r).count() as u64;
        let words = reached.chunks(64).map(|c| {
            c.iter()
                .enumerate()
                .fold(0u64, |w, (i, &r)| w | ((r as u64) << i))
        });
        Digest::of(words, count)
    }

    /// Digest of a depth vector.
    pub fn of_depths(depths: &[u32]) -> Digest {
        let count = depths.iter().filter(|&&d| d != UNREACHED).count() as u64;
        Digest::of(depths.iter().map(|&d| d as u64), count)
    }

    /// Digest of a parent array (for bit-equality with a direct run).
    pub fn of_parents(parents: &[Option<VertexId>]) -> Digest {
        let count = parents.iter().filter(|p| p.is_some()).count() as u64;
        Digest::of(
            parents.iter().map(|p| p.map_or(u64::MAX, |x| x as u64)),
            count,
        )
    }
}

/// The benchmark's own model of the logical graph under updates: sorted
/// out-adjacency lists, edited by the same batches the server applies. The
/// reference searches run over it, independent of the program's CSR,
/// overlay and merge code.
#[derive(Debug, Clone)]
pub struct Model {
    out: Vec<Vec<VertexId>>,
}

impl Model {
    /// The model of `g`'s edges.
    pub fn of_graph(g: &Graph) -> Model {
        let out = (0..g.num_vertices() as VertexId)
            .map(|v| {
                let mut adj = g.out_neighbors(v).to_vec();
                adj.sort_unstable();
                adj.dedup();
                adj
            })
            .collect();
        Model { out }
    }

    /// Whether edge `u → v` exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.out
            .get(u as usize)
            .is_some_and(|adj| adj.binary_search(&v).is_ok())
    }

    /// Applies a batch: inserts, then deletes (batches never name one edge
    /// in both lists).
    pub fn apply(&mut self, batch: &UpdateBatch) {
        for &(u, v) in batch.inserts() {
            let adj = &mut self.out[u as usize];
            if let Err(i) = adj.binary_search(&v) {
                adj.insert(i, v);
            }
        }
        for &(u, v) in batch.deletes() {
            let adj = &mut self.out[u as usize];
            if let Ok(i) = adj.binary_search(&v) {
                adj.remove(i);
            }
        }
    }

    /// BFS depths from `root` over the model.
    pub fn depths(&self, root: VertexId) -> Vec<u32> {
        let mut depth = vec![UNREACHED; self.out.len()];
        depth[root as usize] = 0;
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            let d = depth[u as usize] + 1;
            for &v in &self.out[u as usize] {
                if depth[v as usize] == UNREACHED {
                    depth[v as usize] = d;
                    queue.push_back(v);
                }
            }
        }
        depth
    }

    /// Reached set from `root` over the model.
    pub fn reached(&self, root: VertexId) -> Vec<bool> {
        self.depths(root).iter().map(|&d| d != UNREACHED).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grazelle_graph::edgelist::EdgeList;

    fn diamond() -> Graph {
        // 0 → 1 → 3, 0 → 2 → 3, 3 → 4; vertex 5 unreachable.
        let el = EdgeList::from_pairs(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]).unwrap();
        Graph::from_edgelist(&el).unwrap()
    }

    #[test]
    fn a_correct_tree_matches_the_reference() {
        let g = diamond();
        let m = Model::of_graph(&g);
        let parents = vec![Some(0), Some(0), Some(0), Some(2), Some(3), None];
        let d = tree_depths(0, &parents, |u, v| m.has_edge(u, v)).unwrap();
        assert_eq!(d, m.depths(0));
        assert_eq!(
            d,
            depth_vector(&grazelle_apps::bfs::reference_depths(&g, 0))
        );
    }

    #[test]
    fn wrong_results_are_caught() {
        let g = diamond();
        let m = Model::of_graph(&g);
        let edge = |u, v| m.has_edge(u, v);
        // A parent with no edge to its child.
        let bad_edge = vec![Some(0), Some(0), Some(0), Some(0), Some(3), None];
        assert!(tree_depths(0, &bad_edge, edge).is_err());
        // A cycle.
        let cycle = vec![Some(0), Some(0), Some(0), Some(4), Some(3), None];
        assert!(tree_depths(0, &cycle, edge).is_err());
        // A valid tree that is not a shortest-path tree: 4 hangs off a
        // deeper vertex than BFS would give it (here via an extra edge).
        let mut m2 = m.clone();
        let mut b = UpdateBatch::new();
        b.insert(0, 4);
        m2.apply(&b);
        let long = vec![Some(0), Some(0), Some(0), Some(2), Some(3), None];
        let d = tree_depths(0, &long, |u, v| m2.has_edge(u, v)).unwrap();
        assert_ne!(Digest::of_depths(&d), Digest::of_depths(&m2.depths(0)));
        // A missed vertex and an extra one in a reached set.
        let mut reached = m.reached(0);
        let want = Digest::of_reached(&reached);
        reached[4] = false;
        assert_ne!(Digest::of_reached(&reached), want);
        reached[4] = true;
        reached[5] = true;
        assert_ne!(Digest::of_reached(&reached), want);
        // Ranks off by more than rounding.
        assert!(ranks_match(&[0.25, 0.75], &[0.25, 0.75 + 1e-15]));
        assert!(!ranks_match(&[0.25, 0.75], &[0.25, 0.7501]));
    }

    #[test]
    fn model_applies_inserts_then_deletes() {
        let mut m = Model::of_graph(&diamond());
        let mut b = UpdateBatch::new();
        b.insert(5, 0).delete(3, 4);
        m.apply(&b);
        assert!(m.has_edge(5, 0) && !m.has_edge(3, 4));
        assert_eq!(m.reached(5).iter().filter(|&&r| r).count(), 5);
    }
}
