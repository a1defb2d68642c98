//! Differential tests for the flat (dense `Vec`-indexed) CTE state.
//!
//! `Cte` used to keep per-subtree dangling-edge counts in a
//! `HashMap<NodeId, u64>` (updated along the whole root path on every
//! discovery), its pending discoveries in a `HashSet<(NodeId, Port)>`,
//! and group the robots of each round in a `HashMap<NodeId, Vec<usize>>`.
//! Those were replaced with a dense array of unfinished-direction
//! counts (updated only when a subtree finishes), a sorted pending list,
//! and a sort of `(position, robot)` pairs. This module proves the
//! replacement is behavior-preserving, two ways:
//!
//! 1. `reference` keeps a verbatim copy of the *hashed* CTE. A proptest
//!    compares its traces against the production `Cte` on arbitrary
//!    trees and team sizes — they must be identical, round for round.
//! 2. `CTE_GOLDEN` pins FNV-1a fingerprints of the traces the hashed
//!    `Cte` produced on every tree family at fixed seeds (the same
//!    `(family, n)` instances as `bfdn`'s `flat_differential` goldens).

use bfdn_baselines::Cte;
use bfdn_sim::{Move, Simulator, Trace};
use bfdn_trees::generators::Family;
use bfdn_trees::{NodeId, Tree, TreeBuilder};
use proptest::prelude::*;
use rand::SeedableRng;

/// The hashed CTE, kept verbatim as the differential oracle.
mod reference {
    use bfdn_sim::{Explorer, Move, RoundContext};
    use bfdn_trees::{NodeId, PartialTree, Port};
    use std::collections::{HashMap, HashSet};

    #[derive(Clone, Debug)]
    pub struct HashedCte {
        k: usize,
        subtree_open: HashMap<NodeId, u64>,
        pending: HashSet<(NodeId, Port)>,
        initialized: bool,
    }

    impl HashedCte {
        pub fn new(k: usize) -> Self {
            assert!(k >= 1, "need at least one robot");
            HashedCte {
                k,
                subtree_open: HashMap::new(),
                pending: HashSet::new(),
                initialized: false,
            }
        }

        fn sync(&mut self, tree: &PartialTree) {
            if !self.initialized {
                self.subtree_open
                    .insert(NodeId::ROOT, tree.degree(NodeId::ROOT) as u64);
                self.initialized = true;
            }
            let pending: Vec<_> = self.pending.drain().collect();
            for (u, port) in pending {
                let child = tree
                    .child_at(u, port)
                    .expect("selected dangling moves are applied");
                let child_open = (tree.degree(child) - 1) as u64;
                self.subtree_open.insert(child, child_open);
                let mut cur = Some(u);
                while let Some(v) = cur {
                    let e = self
                        .subtree_open
                        .get_mut(&v)
                        .expect("ancestors are explored");
                    *e = *e + child_open - 1;
                    cur = tree.parent(v);
                }
            }
        }

        fn open_in_subtree(&self, v: NodeId) -> u64 {
            self.subtree_open.get(&v).copied().unwrap_or(0)
        }
    }

    impl Explorer for HashedCte {
        fn select_moves(&mut self, ctx: &RoundContext<'_>, out: &mut [Move]) {
            let tree = ctx.tree;
            self.sync(tree);
            let mut groups: HashMap<NodeId, Vec<usize>> = HashMap::new();
            for i in 0..self.k {
                groups.entry(ctx.positions[i]).or_default().push(i);
            }
            let mut nodes: Vec<NodeId> = groups.keys().copied().collect();
            nodes.sort_unstable();
            for v in nodes {
                let robots = &groups[&v];
                if self.open_in_subtree(v) == 0 {
                    for &i in robots {
                        out[i] = Move::Up;
                    }
                    continue;
                }
                let mut candidates: Vec<Port> = tree.dangling_ports(v).collect();
                candidates.extend(
                    tree.known_children(v)
                        .filter(|&(_, c)| self.open_in_subtree(c) > 0)
                        .map(|(p, _)| p),
                );
                candidates.sort_unstable();
                for (j, &i) in robots.iter().enumerate() {
                    let port = candidates[j % candidates.len()];
                    if tree.child_at(v, port).is_none() {
                        self.pending.insert((v, port));
                    }
                    out[i] = Move::Down(port);
                }
            }
        }

        fn name(&self) -> &str {
            "cte-hashed"
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// The same fingerprint as `bfdn`'s `flat_differential::hash_trace`.
fn hash_trace(trace: &Trace) -> u64 {
    let mut h = FNV_OFFSET;
    for rec in trace.records() {
        fnv(&mut h, rec.round);
        for mv in &rec.moves {
            let code = match mv {
                Move::Stay => 0,
                Move::Up => 1,
                Move::Down(p) => 2 + p.index() as u64,
            };
            fnv(&mut h, code);
        }
        for pos in &rec.positions {
            fnv(&mut h, pos.index() as u64);
        }
    }
    h
}

/// Team sizes of the golden arms: single robot (DFS order), small and
/// medium even splits, and a team larger than the n=40 instances.
const GOLDEN_KS: [usize; 4] = [1, 4, 16, 48];

/// `Cte` trace fingerprints per `(family, n)`, one per team size in
/// [`GOLDEN_KS`], recorded with the hash-table implementation.
#[rustfmt::skip]
const CTE_GOLDEN: [(&str, usize, [u64; 4]); 20] = [
    ("path", 40, [0xaeaf5de5a11fca20, 0x4e0928867e37f7c4, 0x9aca54f78cdc0dc4, 0xa4552618bfbb3dc4]),
    ("path", 180, [0xba00b4adfb86e8e8, 0xe23ced9004fcff9c, 0x8a68eab6644a161c, 0x24c32e31891bd61c]),
    ("star", 40, [0x79a1090d9ad7904c, 0xe16d7954aceb680f, 0x51cbf15e2b953d26, 0x442e2c751ce48a6]),
    ("star", 180, [0x41a779c54f43962c, 0xe72932140eaa7bf2, 0x5458b31bb023eed3, 0x91a1c8c32ebec69f]),
    ("binary", 40, [0xddb42025293fcfbb, 0xa08c222065bf7759, 0x2731cd9520567ed5, 0x59bc6a25ad0eb7c4]),
    ("binary", 180, [0xe6d41795c6463f47, 0x289d8e993c0b7099, 0xda0e05c924d2aad5, 0x90a9883126c84784]),
    ("caterpillar", 40, [0x1ca45d9732820049, 0x564efb983bfc26f, 0x5c205a99965dd7ee, 0xbdb45a5c19f85b24]),
    ("caterpillar", 180, [0x6bfb62fbaaf2ec1, 0x27c3e7d23b2b4c3, 0xc3c25e36b0b1a864, 0x3cf8fa6494995745]),
    ("spider", 40, [0x8c4181e55742abdc, 0x6aaa74e4c2219183, 0xb56787058b1800ca, 0x3c4b5a7d8fea1d16]),
    ("spider", 180, [0x1bac79d4d75271e0, 0xe1731a60cc51e965, 0x428c69bb72322905, 0x63107a3198a33fe5]),
    ("comb", 40, [0x2d98457d42febd2d, 0x5c40316d92ba77cd, 0x52bbb7974b46aee4, 0x3ba5391b67ac3afc]),
    ("comb", 180, [0xbd562de85ca1efa1, 0x9f9073b1ae47c8ff, 0xce749b6aad41b1df, 0x4e2eaedb729ae09d]),
    ("broom", 40, [0xfc7b2b8411c2042c, 0xd2c076312e459a61, 0xbf2ffd6028837d55, 0x92ed9c50536274c8]),
    ("broom", 180, [0xe156eb7a54a98dea, 0x17accecc75364064, 0x20787c817f370a4, 0xe7e6b0571a1a1e24]),
    ("random-recursive", 40, [0xa517be4fa7e9a4dd, 0x56c113468efd5275, 0x74b77053de897f3, 0x175c1f75c8107371]),
    ("random-recursive", 180, [0xe056c88f14d9ff0a, 0x380bff32f420a4a1, 0xd1e3d71ee843f26e, 0xdac72eac37b81c10]),
    ("uniform-labeled", 40, [0x38c1f50b539fb932, 0x950e7600275e66b3, 0xc20ea2e0a420b39c, 0xe06e6d18baf34e8c]),
    ("uniform-labeled", 180, [0x75c547aba9e7925b, 0xd96e38443c35e8c, 0x19d93fb56a983a72, 0x7c213c24a5243acb]),
    ("random-bounded-degree", 40, [0xd3b8ef27ebb202f9, 0x9e583fd3e5cc7e62, 0x404dc9ce069b2a2d, 0x9dbcfed34623584b]),
    ("random-bounded-degree", 180, [0xbcaf026cea3517c5, 0xbab28748c8413763, 0x56ea9f6df445fb5c, 0x2f0fa45ae2fd99c4]),
];

fn family_instance(fam: Family, fi: usize, n: usize) -> Tree {
    let seed = (fi as u64) * 1000 + n as u64;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    fam.instance(n, &mut rng)
}

fn trace_of(tree: &Tree, k: usize, algo: &mut dyn bfdn_sim::Explorer) -> Trace {
    Simulator::new(tree, k)
        .record_trace()
        .run(algo)
        .unwrap()
        .trace
        .unwrap()
}

fn tree_from_choices(choices: &[usize]) -> Tree {
    let mut b = TreeBuilder::with_capacity(choices.len() + 1);
    for (i, &c) in choices.iter().enumerate() {
        b.add_child(NodeId::new(c % (i + 1)));
    }
    b.build()
}

#[test]
fn cte_traces_match_hashed_golden() {
    for (fi, fam) in Family::ALL.iter().enumerate() {
        for n in [40usize, 180] {
            let tree = family_instance(*fam, fi, n);
            let golden = CTE_GOLDEN
                .iter()
                .find(|(name, gn, _)| *name == fam.name() && *gn == n)
                .map(|(_, _, h)| h)
                .expect("every (family, n) has a golden row");
            for (k, want) in GOLDEN_KS.iter().zip(golden) {
                let got = hash_trace(&trace_of(&tree, *k, &mut Cte::new(*k)));
                assert_eq!(
                    got,
                    *want,
                    "{} n={n} k={k}: cte trace diverged from the recorded baseline",
                    fam.name()
                );
            }
        }
    }
}

#[test]
fn cte_matches_hashed_reference_on_families() {
    for (fi, fam) in Family::ALL.iter().enumerate() {
        let tree = family_instance(*fam, fi, 120);
        for k in [2usize, 7, 33] {
            let flat = trace_of(&tree, k, &mut Cte::new(k));
            let hashed = trace_of(&tree, k, &mut reference::HashedCte::new(k));
            assert!(flat == hashed, "trace diverged: {} k={k}", fam.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The production `Cte` emits the exact trace of the hashed
    /// reference on arbitrary trees and team sizes.
    #[test]
    fn cte_matches_hashed_reference(
        choices in prop::collection::vec(any::<usize>(), 1..200),
        k in 1usize..40,
    ) {
        let tree = tree_from_choices(&choices);
        let flat = trace_of(&tree, k, &mut Cte::new(k));
        let hashed = trace_of(&tree, k, &mut reference::HashedCte::new(k));
        prop_assert_eq!(
            flat.records().len(),
            hashed.records().len(),
            "round counts diverged on {} k={}", tree, k
        );
        prop_assert!(flat == hashed, "trace diverged on {} k={}", tree, k);
    }
}
