//! Property-based tests on the tree substrate.

use bfdn_trees::generators::{self, Family};
use bfdn_trees::{NodeId, PartialTree, Tree, TreeBuilder};
use proptest::prelude::*;
use rand::SeedableRng;

/// Builds an arbitrary tree from a parent-choice vector: node `i + 1`
/// attaches below node `choices[i] % (i + 1)`.
fn tree_from_choices(choices: &[usize]) -> Tree {
    let mut b = TreeBuilder::with_capacity(choices.len() + 1);
    for (i, &c) in choices.iter().enumerate() {
        b.add_child(NodeId::new(c % (i + 1)));
    }
    b.build()
}

fn arb_tree() -> impl Strategy<Value = Tree> {
    prop::collection::vec(any::<usize>(), 0..200).prop_map(|c| tree_from_choices(&c))
}

proptest! {
    #[test]
    fn validate_accepts_all_built_trees(t in arb_tree()) {
        prop_assert!(t.validate().is_ok());
    }

    #[test]
    fn depth_equals_max_node_depth(t in arb_tree()) {
        let max = t.node_ids().map(|v| t.node_depth(v)).max().unwrap();
        prop_assert_eq!(t.depth(), max);
    }

    #[test]
    fn subtree_sizes_sum_to_descendant_counts(t in arb_tree()) {
        // Root subtree is everything; each child partition sums to n - 1.
        prop_assert_eq!(t.subtree_size(NodeId::ROOT), t.len());
        let child_sum: usize = t
            .children(NodeId::ROOT)
            .iter()
            .map(|&c| t.subtree_size(c))
            .sum();
        prop_assert_eq!(child_sum, t.len() - 1);
    }

    #[test]
    fn euler_tour_traverses_every_edge_twice(t in arb_tree()) {
        let tour = t.euler_tour();
        prop_assert_eq!(tour.len(), 2 * t.num_edges() + 1);
        let mut uses = std::collections::HashMap::new();
        for w in tour.windows(2) {
            let key = if w[0] < w[1] { (w[0], w[1]) } else { (w[1], w[0]) };
            *uses.entry(key).or_insert(0usize) += 1;
        }
        prop_assert!(uses.values().all(|&c| c == 2));
        prop_assert_eq!(uses.len(), t.num_edges());
    }

    #[test]
    fn lca_is_common_ancestor(t in arb_tree(), a in any::<usize>(), b in any::<usize>()) {
        let u = NodeId::new(a % t.len());
        let v = NodeId::new(b % t.len());
        let l = t.lca(u, v);
        prop_assert!(t.is_ancestor(l, u));
        prop_assert!(t.is_ancestor(l, v));
        // No deeper common ancestor exists: l's children covering u also
        // covering v would contradict maximality.
        for &c in t.children(l) {
            prop_assert!(!(t.is_ancestor(c, u) && t.is_ancestor(c, v)));
        }
    }

    #[test]
    fn distance_is_a_metric_on_samples(t in arb_tree(), a in any::<usize>(), b in any::<usize>(), c in any::<usize>()) {
        let u = NodeId::new(a % t.len());
        let v = NodeId::new(b % t.len());
        let w = NodeId::new(c % t.len());
        prop_assert_eq!(t.distance(u, u), 0);
        prop_assert_eq!(t.distance(u, v), t.distance(v, u));
        prop_assert!(t.distance(u, w) <= t.distance(u, v) + t.distance(v, w));
    }

    /// Revealing the whole tree through PartialTree::attach in BFS order
    /// reconstructs exactly the ground truth.
    #[test]
    fn partial_tree_full_reveal_matches_ground_truth(t in arb_tree()) {
        let mut pt = PartialTree::new(t.len(), t.degree(NodeId::ROOT));
        let mut queue = std::collections::VecDeque::from([NodeId::ROOT]);
        while let Some(u) = queue.pop_front() {
            for (port, c) in t.child_ports(u) {
                pt.attach(u, port, c, t.degree(c));
                queue.push_back(c);
            }
        }
        prop_assert!(pt.is_complete());
        prop_assert_eq!(pt.num_explored(), t.len());
        prop_assert!(pt.validate().is_ok());
        for v in t.node_ids() {
            prop_assert_eq!(pt.depth(v), t.node_depth(v));
            prop_assert_eq!(pt.parent(v), t.parent(v));
            prop_assert_eq!(pt.degree(v), t.degree(v));
        }
    }

    /// Partial reveals keep counters consistent at every step.
    #[test]
    fn partial_tree_invariants_hold_mid_reveal(t in arb_tree(), stop in any::<usize>()) {
        let mut pt = PartialTree::new(t.len(), t.degree(NodeId::ROOT));
        let mut revealed = 0usize;
        let budget = stop % t.len();
        'outer: for u in t.preorder() {
            if !pt.is_explored(u) {
                continue;
            }
            for (port, c) in t.child_ports(u) {
                if revealed >= budget {
                    break 'outer;
                }
                pt.attach(u, port, c, t.degree(c));
                revealed += 1;
            }
        }
        prop_assert!(pt.validate().is_ok());
        let open_count = pt
            .explored_nodes()
            .iter()
            .filter(|&&v| pt.is_open(v))
            .count();
        let recomputed: usize = pt
            .explored_nodes()
            .iter()
            .map(|&v| pt.dangling_ports(v).count())
            .sum();
        prop_assert_eq!(recomputed, pt.total_dangling());
        if pt.total_dangling() > 0 {
            prop_assert!(open_count > 0);
            prop_assert!(pt.min_open_depth().is_some());
        }
    }
}

/// Brute-force open sets of a partial reveal of `t`: explored nodes with
/// an unexplored ground-truth child, grouped by depth in id order.
fn brute_open_by_depth(t: &Tree, pt: &PartialTree) -> Vec<Vec<NodeId>> {
    let mut by_depth = vec![Vec::new(); t.depth() + 2];
    for v in t.node_ids() {
        let open = pt.is_explored(v) && t.children(v).iter().any(|&c| !pt.is_explored(c));
        if open {
            by_depth[t.node_depth(v)].push(v);
        }
    }
    by_depth
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reveals `t` one dangling edge at a time in an arbitrary order
    /// (so deeper open lists fill out of id order) and checks, after
    /// every attach, each open-set query against a brute-force
    /// recomputation from the ground-truth tree.
    #[test]
    fn open_sets_match_brute_force_under_random_reveals(
        t in arb_tree(),
        picks in prop::collection::vec(any::<usize>(), 200),
    ) {
        let mut pt = PartialTree::new(t.len(), t.degree(NodeId::ROOT));
        let mut frontier: Vec<_> = t
            .child_ports(NodeId::ROOT)
            .map(|(p, c)| (NodeId::ROOT, p, c))
            .collect();
        let mut step = 0usize;
        loop {
            let brute = brute_open_by_depth(&t, &pt);
            prop_assert!(pt.validate().is_ok(), "{:?}", pt.validate());
            for (d, want) in brute.iter().enumerate() {
                let got: Vec<NodeId> = pt.open_nodes_at_depth(d).collect();
                prop_assert_eq!(&got, want, "depth {}", d);
            }
            let snapshot: Vec<(usize, NodeId)> = brute
                .iter()
                .enumerate()
                .flat_map(|(d, vs)| vs.iter().map(move |&v| (d, v)))
                .collect();
            prop_assert_eq!(pt.open_nodes_snapshot(), snapshot);
            prop_assert_eq!(pt.min_open_depth(), brute.iter().position(|vs| !vs.is_empty()));
            if frontier.is_empty() {
                break;
            }
            let (u, port, c) = frontier.swap_remove(picks[step % picks.len()] % frontier.len());
            step += 1;
            pt.attach(u, port, c, t.degree(c));
            frontier.extend(t.child_ports(c).map(|(p, g)| (c, p, g)));
        }
        prop_assert!(pt.is_complete());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn family_instances_scale(n in 2usize..600, seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for fam in Family::ALL {
            let t = fam.instance(n, &mut rng);
            prop_assert!(t.validate().is_ok());
            // Every family lands within a constant factor of the target.
            prop_assert!(t.len() >= n / 8, "{} produced {} nodes for n={}", fam, t.len(), n);
        }
    }

    #[test]
    fn generators_depth_contract(spine in 1usize..50, legs in 1usize..6) {
        let t = generators::caterpillar(spine, legs);
        prop_assert_eq!(t.depth(), spine);
        prop_assert_eq!(t.len(), spine * (legs + 1) + 1);
        let s = generators::spider(legs, spine);
        prop_assert_eq!(s.depth(), spine);
        prop_assert_eq!(s.len(), legs * spine + 1);
    }
}
