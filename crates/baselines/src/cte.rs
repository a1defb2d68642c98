//! CTE — Collective Tree Exploration (Fraigniaud, Gasieniec, Kowalski,
//! Pelc \[10\]).
//!
//! The even-split strategy: at every round, the robots standing at a
//! node whose explored subtree still contains dangling edges divide
//! themselves as evenly as possible among the "unfinished" directions
//! (adjacent dangling edges and children with unfinished subtrees);
//! robots at a finished node walk up. CTE explores any tree in
//! `O(n/log k + D)` rounds and its competitive ratio `Θ(k/log k)` is
//! tight \[11\] — experiment E6 reproduces the lower-bound side, where
//! BFDN's additive-overhead guarantee wins.

use bfdn_sim::{Explorer, Move, RoundContext};
use bfdn_trees::{NodeId, PartialTree, Port};

/// The CTE explorer (complete-communication model).
///
/// # Example
///
/// ```
/// use bfdn_baselines::Cte;
/// use bfdn_sim::Simulator;
/// use bfdn_trees::generators;
///
/// let tree = generators::binary(5);
/// let mut cte = Cte::new(16);
/// let outcome = Simulator::new(&tree, 16).run(&mut cte)?;
/// assert!(outcome.rounds >= 2 * tree.depth() as u64);
/// # Ok::<(), bfdn_sim::SimError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Cte {
    k: usize,
    /// Per node id: dangling edges at the node plus known children with
    /// unfinished subtrees. Zero exactly when the explored subtree holds
    /// no dangling edge (and while the node is unexplored). Sized from
    /// the tree's arena on the first round.
    unfinished: Vec<u32>,
    /// Dangling selections made last round, to account once applied.
    /// Several robots may pick the same edge; `sync` sorts and
    /// deduplicates before folding.
    pending: Vec<(NodeId, Port)>,
    /// Scratch: `(position, robot)` pairs, sorted each round to group
    /// the robots by node in (node, robot) order.
    by_position: Vec<(NodeId, usize)>,
    /// Scratch: the unfinished directions at one node.
    candidates: Vec<Port>,
    initialized: bool,
}

impl Cte {
    /// Creates the explorer for `k` robots.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "need at least one robot");
        Cte {
            k,
            unfinished: Vec::new(),
            pending: Vec::new(),
            by_position: Vec::with_capacity(k),
            candidates: Vec::new(),
            initialized: false,
        }
    }

    /// Number of robots `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Folds last round's discoveries into the unfinished counters.
    ///
    /// Amortized O(1) per discovery: a traversal turns a dangling edge
    /// of `u` into a child, which changes `u`'s count only when the
    /// child is a leaf. Then `u` may finish, and a finished node
    /// decrements its parent in turn; every node finishes once.
    fn sync(&mut self, tree: &PartialTree) {
        if !self.initialized {
            self.unfinished = vec![0; tree.capacity()];
            self.unfinished[NodeId::ROOT.index()] = tree.degree(NodeId::ROOT) as u32;
            self.initialized = true;
        }
        self.pending.sort_unstable();
        self.pending.dedup();
        for &(u, port) in &self.pending {
            let child = tree
                .child_at(u, port)
                .expect("selected dangling moves are applied");
            let child_open = (tree.degree(child) - 1) as u32;
            self.unfinished[child.index()] = child_open;
            if child_open > 0 {
                continue;
            }
            let mut cur = Some(u);
            while let Some(v) = cur {
                let e = &mut self.unfinished[v.index()];
                *e -= 1;
                if *e > 0 {
                    break;
                }
                cur = tree.parent(v);
            }
        }
        self.pending.clear();
    }
}

impl Explorer for Cte {
    fn select_moves(&mut self, ctx: &RoundContext<'_>, out: &mut [Move]) {
        debug_assert_eq!(ctx.k(), self.k, "robot count changed mid-run");
        let tree = ctx.tree;
        self.sync(tree);
        // Group robots by node: nodes in id order, robots in index
        // order within each node.
        self.by_position.clear();
        self.by_position
            .extend(ctx.positions[..self.k].iter().copied().zip(0..));
        self.by_position.sort_unstable();
        let unfinished = &self.unfinished;
        for group in self.by_position.chunk_by(|a, b| a.0 == b.0) {
            let v = group[0].0;
            if unfinished[v.index()] == 0 {
                // Finished subtree: everyone heads home.
                for &(_, i) in group {
                    out[i] = Move::Up; // ⊥ at the root
                }
                continue;
            }
            // Unfinished directions: dangling ports, then children with
            // unfinished subtrees, in port order.
            let candidates = &mut self.candidates;
            candidates.clear();
            candidates.extend(tree.dangling_ports(v));
            candidates.extend(
                tree.known_children(v)
                    .filter(|&(_, c)| unfinished[c.index()] > 0)
                    .map(|(p, _)| p),
            );
            candidates.sort_unstable();
            debug_assert!(
                !candidates.is_empty(),
                "a positive unfinished count implies an unfinished direction"
            );
            for (j, &(_, i)) in group.iter().enumerate() {
                let port = candidates[j % candidates.len()];
                if tree.child_at(v, port).is_none() {
                    self.pending.push((v, port));
                }
                out[i] = Move::Down(port);
            }
        }
    }

    fn name(&self) -> &str {
        "cte"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfdn_sim::Simulator;
    use bfdn_trees::generators::{self, Family};
    use rand::SeedableRng;

    fn run_cte(tree: &bfdn_trees::Tree, k: usize) -> u64 {
        let mut cte = Cte::new(k);
        Simulator::new(tree, k)
            .run(&mut cte)
            .unwrap_or_else(|e| panic!("cte stuck on {tree} with k={k}: {e}"))
            .rounds
    }

    #[test]
    fn explores_all_families() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for fam in Family::ALL {
            let tree = fam.instance(120, &mut rng);
            for k in [1usize, 2, 6, 16] {
                let rounds = run_cte(&tree, k);
                assert!(rounds >= 2 * tree.depth() as u64, "{fam} k={k}");
            }
        }
    }

    #[test]
    fn single_robot_cte_is_dfs() {
        let tree = generators::comb(6, 4);
        assert_eq!(run_cte(&tree, 1), 2 * tree.num_edges() as u64);
    }

    #[test]
    fn star_with_k_robots_is_two_rounds() {
        let tree = generators::star(8);
        assert_eq!(run_cte(&tree, 8), 2);
    }

    #[test]
    fn even_split_parallelizes_binary_trees() {
        let tree = generators::binary(10); // 2047 nodes
        let r1 = run_cte(&tree, 1);
        let r16 = run_cte(&tree, 16);
        assert!(r16 * 4 < r1, "r1={r1} r16={r16}");
    }

    #[test]
    fn respects_fgkp_guarantee_shape() {
        // O(n/log k + D) with a generous constant of 8.
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for fam in [Family::Binary, Family::RandomRecursive, Family::Caterpillar] {
            let tree = fam.instance(600, &mut rng);
            for k in [4usize, 32] {
                let rounds = run_cte(&tree, k) as f64;
                let guarantee =
                    8.0 * (tree.len() as f64 / (k as f64).ln() + tree.depth() as f64 + 1.0);
                assert!(rounds <= guarantee, "{fam} k={k}: {rounds} > {guarantee}");
            }
        }
    }
}
