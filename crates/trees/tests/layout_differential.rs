//! Differential tests for the flat tree arenas.
//!
//! `Tree` used to be a `Vec<NodeData>` arena where every node owned a
//! heap `Vec` of children, and `PartialTree` a `Vec<Option<KnownNode>>`
//! where every explored node owned a heap `Vec` of down slots. Both were
//! replaced with flat arenas: a CSR `Tree` (parent, depth, child offsets
//! and one shared child array) and packed `Copy` records per
//! `PartialTree` node with one shared down-slot array. This module keeps
//! verbatim copies of the per-node-`Vec` layouts as oracles and checks
//! that every query answers the same:
//!
//! 1. `reference::NodeDataTree` against `Tree`, on arbitrary parent
//!    arrays and on every `Family` at several sizes;
//! 2. `reference::KnownNodePartialTree` against `PartialTree`, revealing
//!    arbitrary trees one dangling edge at a time in random order and
//!    comparing after every `attach`.
//!
//! CI runs this file with `PROPTEST_CASES=2000` for a deeper fuzz.

use bfdn_trees::generators::Family;
use bfdn_trees::{NodeId, PartialTree, Port, Tree, TreeBuilder};
use proptest::prelude::*;
use rand::SeedableRng;
use reference::{KnownNodePartialTree, NodeDataTree};

/// The per-node-`Vec` layouts, kept verbatim as the differential oracles.
mod reference {
    use bfdn_trees::{NodeId, Port};

    #[derive(Clone, Debug)]
    struct NodeData {
        /// Parent node; `None` only for the root.
        parent: Option<NodeId>,
        /// Children in port order (child `i` is reached through port `i + 1`
        /// at non-root nodes, port `i` at the root).
        children: Vec<NodeId>,
        /// Distance to the root.
        depth: u32,
    }

    /// The `Vec<NodeData>` tree arena.
    #[derive(Clone)]
    pub struct NodeDataTree {
        nodes: Vec<NodeData>,
        depth: u32,
        max_degree: usize,
    }

    impl NodeDataTree {
        /// Builds the arena the way `TreeBuilder` did: `parents[i]` is
        /// the parent of node `i + 1`.
        pub fn from_parents(parents: &[usize]) -> Self {
            let mut nodes = vec![NodeData {
                parent: None,
                children: Vec::new(),
                depth: 0,
            }];
            for (i, &p) in parents.iter().enumerate() {
                assert!(p <= i, "parent {p} of node {} not yet created", i + 1);
                let parent = NodeId::new(p);
                let depth = nodes[parent.index()].depth + 1;
                let id = NodeId::new(nodes.len());
                nodes.push(NodeData {
                    parent: Some(parent),
                    children: Vec::new(),
                    depth,
                });
                nodes[parent.index()].children.push(id);
            }
            Self::from_nodes(nodes)
        }

        fn from_nodes(nodes: Vec<NodeData>) -> Self {
            assert!(!nodes.is_empty(), "a tree has at least its root");
            let depth = nodes.iter().map(|n| n.depth).max().unwrap_or(0);
            let max_degree = nodes
                .iter()
                .map(|n| n.children.len() + usize::from(n.parent.is_some()))
                .max()
                .unwrap_or(0);
            NodeDataTree {
                nodes,
                depth,
                max_degree,
            }
        }

        pub fn len(&self) -> usize {
            self.nodes.len()
        }

        pub fn depth(&self) -> usize {
            self.depth as usize
        }

        pub fn max_degree(&self) -> usize {
            self.max_degree
        }

        pub fn node_depth(&self, v: NodeId) -> usize {
            self.nodes[v.index()].depth as usize
        }

        pub fn parent(&self, v: NodeId) -> Option<NodeId> {
            self.nodes[v.index()].parent
        }

        pub fn children(&self, v: NodeId) -> &[NodeId] {
            &self.nodes[v.index()].children
        }

        pub fn degree(&self, v: NodeId) -> usize {
            let d = &self.nodes[v.index()];
            d.children.len() + usize::from(d.parent.is_some())
        }

        pub fn neighbor(&self, v: NodeId, p: Port) -> Option<NodeId> {
            let d = &self.nodes[v.index()];
            match d.parent {
                Some(parent) if p.is_up() => Some(parent),
                Some(_) => d.children.get(p.index() - 1).copied(),
                None => d.children.get(p.index()).copied(),
            }
        }

        pub fn port_to_child(&self, v: NodeId, c: NodeId) -> Port {
            let d = &self.nodes[v.index()];
            let pos = d
                .children
                .iter()
                .position(|&x| x == c)
                .expect("not a child of this node");
            if d.parent.is_some() {
                Port::new(pos + 1)
            } else {
                Port::new(pos)
            }
        }

        pub fn child_ports(&self, v: NodeId) -> impl Iterator<Item = (Port, NodeId)> + '_ {
            let d = &self.nodes[v.index()];
            let off = usize::from(d.parent.is_some());
            d.children
                .iter()
                .enumerate()
                .map(move |(i, &c)| (Port::new(i + off), c))
        }

        pub fn lca(&self, u: NodeId, v: NodeId) -> NodeId {
            let (mut a, mut b) = (u, v);
            while self.node_depth(a) > self.node_depth(b) {
                a = self.parent(a).expect("non-root has a parent");
            }
            while self.node_depth(b) > self.node_depth(a) {
                b = self.parent(b).expect("non-root has a parent");
            }
            while a != b {
                a = self.parent(a).expect("non-root has a parent");
                b = self.parent(b).expect("non-root has a parent");
            }
            a
        }

        pub fn subtree_size(&self, v: NodeId) -> usize {
            let mut count = 0;
            let mut stack = vec![v];
            while let Some(u) = stack.pop() {
                count += 1;
                stack.extend_from_slice(self.children(u));
            }
            count
        }

        pub fn preorder(&self) -> Vec<NodeId> {
            let mut out = Vec::with_capacity(self.len());
            let mut stack = vec![NodeId::ROOT];
            while let Some(u) = stack.pop() {
                out.push(u);
                for &c in self.children(u).iter().rev() {
                    stack.push(c);
                }
            }
            out
        }

        pub fn euler_tour(&self) -> Vec<NodeId> {
            let mut tour = Vec::with_capacity(2 * self.len());
            let mut stack: Vec<(NodeId, usize)> = vec![(NodeId::ROOT, 0)];
            tour.push(NodeId::ROOT);
            while let Some(&mut (u, ref mut next)) = stack.last_mut() {
                let children = self.children(u);
                if *next < children.len() {
                    let c = children[*next];
                    *next += 1;
                    tour.push(c);
                    stack.push((c, 0));
                } else {
                    stack.pop();
                    if let Some(&(p, _)) = stack.last() {
                        tour.push(p);
                    }
                }
            }
            tour
        }
    }

    /// Everything known about one explored node.
    #[derive(Clone, Debug)]
    struct KnownNode {
        parent: Option<NodeId>,
        parent_port: Option<Port>,
        depth: u32,
        degree: usize,
        down: Vec<Option<NodeId>>,
        dangling: usize,
        first_dangling: usize,
    }

    impl KnownNode {
        fn depth(&self) -> usize {
            self.depth as usize
        }

        fn down_offset(&self) -> usize {
            usize::from(self.parent.is_some())
        }
    }

    /// The `Vec<Option<KnownNode>>` partial tree.
    #[derive(Clone, Debug)]
    pub struct KnownNodePartialTree {
        nodes: Vec<Option<KnownNode>>,
        explored: Vec<NodeId>,
        total_dangling: usize,
        open_by_depth: Vec<Vec<NodeId>>,
        open_count: Vec<usize>,
        min_open_cursor: usize,
    }

    impl KnownNodePartialTree {
        pub fn new(capacity: usize, root_degree: usize) -> Self {
            let mut nodes = vec![None; capacity.max(1)];
            nodes[0] = Some(KnownNode {
                parent: None,
                parent_port: None,
                depth: 0,
                degree: root_degree,
                down: vec![None; root_degree],
                dangling: root_degree,
                first_dangling: 0,
            });
            let root_open = usize::from(root_degree > 0);
            KnownNodePartialTree {
                nodes,
                explored: vec![NodeId::ROOT],
                total_dangling: root_degree,
                open_by_depth: vec![vec![NodeId::ROOT; root_open]],
                open_count: vec![root_open],
                min_open_cursor: 0,
            }
        }

        pub fn attach(&mut self, u: NodeId, port: Port, child: NodeId, child_degree: usize) {
            let (u_depth, off) = {
                let ku = self.nodes[u.index()]
                    .as_ref()
                    .expect("attach below an unexplored node");
                (ku.depth, ku.down_offset())
            };
            let slot = port
                .index()
                .checked_sub(off)
                .expect("attach through the parent port");
            let ku = self.nodes[u.index()].as_mut().expect("checked above");
            match ku.down.get(slot) {
                Some(None) => {}
                Some(Some(existing)) => {
                    assert_eq!(*existing, child, "port already leads to a different node");
                    return;
                }
                None => panic!("port {port} out of range at node {u}"),
            }
            ku.down[slot] = Some(child);
            ku.dangling -= 1;
            while ku.first_dangling < ku.down.len() && ku.down[ku.first_dangling].is_some() {
                ku.first_dangling += 1;
            }
            let now_closed = ku.dangling == 0;
            self.total_dangling -= 1;
            if now_closed {
                self.close(u_depth as usize);
            }

            assert!(
                self.nodes[child.index()].is_none(),
                "node {child} explored twice"
            );
            let child_depth = u_depth + 1;
            let child_dangling = child_degree - 1;
            self.nodes[child.index()] = Some(KnownNode {
                parent: Some(u),
                parent_port: Some(port),
                depth: child_depth,
                degree: child_degree,
                down: vec![None; child_dangling],
                dangling: child_dangling,
                first_dangling: 0,
            });
            self.explored.push(child);
            self.total_dangling += child_dangling;
            let d = child_depth as usize;
            if self.open_by_depth.len() <= d {
                self.open_by_depth.resize_with(d + 1, Vec::new);
                self.open_count.resize(d + 1, 0);
            }
            if child_dangling > 0 {
                self.open_by_depth[d].push(child);
                self.open_count[d] += 1;
            }
            let before = self.min_open_cursor;
            while self.min_open_cursor < self.open_count.len()
                && self.open_count[self.min_open_cursor] == 0
            {
                self.min_open_cursor += 1;
            }
            if self.min_open_cursor != before && self.min_open_cursor < self.open_by_depth.len() {
                let d = self.min_open_cursor;
                let mut list = std::mem::take(&mut self.open_by_depth[d]);
                list.retain(|&v| self.is_open(v));
                list.sort_unstable();
                self.open_by_depth[d] = list;
            }
        }

        fn close(&mut self, d: usize) {
            self.open_count[d] -= 1;
            if self.open_by_depth[d].len() > 2 * self.open_count[d] {
                let mut list = std::mem::take(&mut self.open_by_depth[d]);
                list.retain(|&v| self.is_open(v));
                self.open_by_depth[d] = list;
            }
        }

        fn listed_open(&self, depth: usize) -> impl Iterator<Item = NodeId> + '_ {
            self.open_by_depth
                .get(depth)
                .map_or(&[][..], Vec::as_slice)
                .iter()
                .copied()
                .filter(|&v| self.is_open(v))
        }

        fn sorted_open(&self, depth: usize) -> Vec<NodeId> {
            let mut open: Vec<NodeId> = self.listed_open(depth).collect();
            open.sort_unstable();
            open
        }

        fn known(&self, v: NodeId) -> Option<&KnownNode> {
            self.nodes.get(v.index()).and_then(|n| n.as_ref())
        }

        pub fn is_explored(&self, v: NodeId) -> bool {
            self.known(v).is_some()
        }

        pub fn parent(&self, v: NodeId) -> Option<NodeId> {
            self.expect_known(v).parent
        }

        pub fn depth(&self, v: NodeId) -> usize {
            self.expect_known(v).depth()
        }

        pub fn parent_port(&self, v: NodeId) -> Option<Port> {
            self.expect_known(v).parent_port
        }

        pub fn degree(&self, v: NodeId) -> usize {
            self.expect_known(v).degree
        }

        fn expect_known(&self, v: NodeId) -> &KnownNode {
            self.known(v)
                .unwrap_or_else(|| panic!("node {v} unexplored"))
        }

        pub fn child_at(&self, v: NodeId, port: Port) -> Option<NodeId> {
            let k = self.expect_known(v);
            let slot = port
                .index()
                .checked_sub(k.down_offset())
                .expect("parent port is not a down port");
            k.down[slot]
        }

        pub fn dangling_ports(&self, v: NodeId) -> impl Iterator<Item = Port> + '_ {
            let k = self.expect_known(v);
            let off = k.down_offset();
            k.down[k.first_dangling..]
                .iter()
                .enumerate()
                .filter(|(_, c)| c.is_none())
                .map(move |(i, _)| Port::new(i + k.first_dangling + off))
        }

        pub fn known_children(&self, v: NodeId) -> impl Iterator<Item = (Port, NodeId)> + '_ {
            let k = self.expect_known(v);
            let off = k.down_offset();
            k.down
                .iter()
                .enumerate()
                .filter_map(move |(i, c)| c.map(|c| (Port::new(i + off), c)))
        }

        pub fn is_open(&self, v: NodeId) -> bool {
            self.known(v).is_some_and(|k| k.dangling > 0)
        }

        pub fn total_dangling(&self) -> usize {
            self.total_dangling
        }

        pub fn min_open_depth(&self) -> Option<usize> {
            self.open_count
                .get(self.min_open_cursor)
                .is_some_and(|&n| n > 0)
                .then_some(self.min_open_cursor)
        }

        pub fn open_nodes_snapshot(&self) -> Vec<(usize, NodeId)> {
            (self.min_open_cursor..self.open_by_depth.len())
                .flat_map(|d| self.sorted_open(d).into_iter().map(move |v| (d, v)))
                .collect()
        }

        pub fn open_nodes_at_depth(&self, depth: usize) -> impl Iterator<Item = NodeId> + '_ {
            let (sorted, copied) = if depth == self.min_open_cursor {
                (Some(self.listed_open(depth)), Vec::new())
            } else {
                (None, self.sorted_open(depth))
            };
            sorted.into_iter().flatten().chain(copied)
        }
    }
}

/// A parent array from a parent-choice vector: node `i + 1` attaches
/// below node `choices[i] % (i + 1)`.
fn parents_from_choices(choices: &[usize]) -> Vec<usize> {
    choices
        .iter()
        .enumerate()
        .map(|(i, &c)| c % (i + 1))
        .collect()
}

/// The parent array of `t` (`parents[i]` is the parent of node `i + 1`).
fn parents_of(t: &Tree) -> Vec<usize> {
    t.node_ids()
        .skip(1)
        .map(|v| t.parent(v).expect("non-root has a parent").index())
        .collect()
}

/// Checks every `Tree` query against the `NodeData` arena; `pairs`
/// picks the `lca` samples.
fn check_tree(t: &Tree, old: &NodeDataTree, pairs: &[usize]) -> Result<(), TestCaseError> {
    prop_assert_eq!(t.len(), old.len());
    prop_assert_eq!(t.depth(), old.depth());
    prop_assert_eq!(t.max_degree(), old.max_degree());
    for v in t.node_ids() {
        prop_assert_eq!(t.parent(v), old.parent(v), "parent of {}", v);
        prop_assert_eq!(t.node_depth(v), old.node_depth(v), "depth of {}", v);
        prop_assert_eq!(t.children(v), old.children(v), "children of {}", v);
        prop_assert_eq!(t.degree(v), old.degree(v), "degree of {}", v);
        for p in 0..=t.degree(v) {
            prop_assert_eq!(t.neighbor(v, Port::new(p)), old.neighbor(v, Port::new(p)));
        }
        for &c in t.children(v) {
            prop_assert_eq!(t.port_to_child(v, c), old.port_to_child(v, c));
        }
        prop_assert!(t.child_ports(v).eq(old.child_ports(v)), "ports of {}", v);
        prop_assert_eq!(t.subtree_size(v), old.subtree_size(v), "subtree of {}", v);
    }
    prop_assert_eq!(t.preorder(), old.preorder());
    prop_assert_eq!(t.euler_tour(), old.euler_tour());
    for w in pairs.windows(2) {
        let (u, v) = (NodeId::new(w[0] % t.len()), NodeId::new(w[1] % t.len()));
        prop_assert_eq!(t.lca(u, v), old.lca(u, v), "lca({}, {})", u, v);
    }
    Ok(())
}

/// Checks every `PartialTree` query against the `KnownNode` layout.
fn check_partial(pt: &PartialTree, old: &KnownNodePartialTree) -> Result<(), TestCaseError> {
    prop_assert!(pt.validate().is_ok(), "{:?}", pt.validate());
    prop_assert_eq!(pt.total_dangling(), old.total_dangling());
    let min = pt.min_open_depth();
    prop_assert_eq!(min, old.min_open_depth());
    if let Some(d) = min {
        prop_assert!(pt.open_nodes_at_depth(d).eq(old.open_nodes_at_depth(d)));
    }
    prop_assert_eq!(pt.open_nodes_snapshot(), old.open_nodes_snapshot());
    for v in (0..pt.capacity()).map(NodeId::new) {
        prop_assert_eq!(pt.is_explored(v), old.is_explored(v), "explored {}", v);
        prop_assert_eq!(pt.is_open(v), old.is_open(v), "open {}", v);
        if !old.is_explored(v) {
            continue;
        }
        prop_assert_eq!(pt.parent(v), old.parent(v));
        prop_assert_eq!(pt.parent_port(v), old.parent_port(v));
        prop_assert_eq!(pt.depth(v), old.depth(v));
        prop_assert_eq!(pt.degree(v), old.degree(v));
        for p in usize::from(!v.is_root())..pt.degree(v) {
            prop_assert_eq!(pt.child_at(v, Port::new(p)), old.child_at(v, Port::new(p)));
        }
        prop_assert!(pt.dangling_ports(v).eq(old.dangling_ports(v)));
        prop_assert!(pt.known_children(v).eq(old.known_children(v)));
    }
    Ok(())
}

/// Reveals `t` into both partial-tree layouts one dangling edge at a
/// time, in the order `picks` chooses from the frontier (so deeper open
/// lists fill out of id order), re-attaching the edge just crossed (a
/// no-op) and comparing every query after each step.
fn reveal_and_compare(t: &Tree, picks: &[usize]) -> Result<(), TestCaseError> {
    let root_degree = t.degree(NodeId::ROOT);
    let mut pt = PartialTree::new(t.len(), root_degree);
    let mut old = KnownNodePartialTree::new(t.len(), root_degree);
    let mut frontier: Vec<_> = t
        .child_ports(NodeId::ROOT)
        .map(|(p, c)| (NodeId::ROOT, p, c))
        .collect();
    check_partial(&pt, &old)?;
    let mut step = 0usize;
    while !frontier.is_empty() {
        let (u, port, c) = frontier.swap_remove(picks[step % picks.len()] % frontier.len());
        step += 1;
        pt.attach(u, port, c, t.degree(c));
        old.attach(u, port, c, t.degree(c));
        check_partial(&pt, &old)?;
        pt.attach(u, port, c, t.degree(c));
        old.attach(u, port, c, t.degree(c));
        check_partial(&pt, &old)?;
        frontier.extend(t.child_ports(c).map(|(p, g)| (c, p, g)));
    }
    prop_assert!(pt.is_complete());
    prop_assert_eq!(pt.num_explored(), t.len());
    Ok(())
}

proptest! {
    #[test]
    fn tree_matches_node_data_arena(
        choices in prop::collection::vec(any::<usize>(), 0..200),
        pairs in prop::collection::vec(any::<usize>(), 2..40),
    ) {
        let parents = parents_from_choices(&choices);
        let t = TreeBuilder::from_parents(&parents);
        let old = NodeDataTree::from_parents(&parents);
        check_tree(&t, &old, &pairs)?;
    }

    #[test]
    fn partial_tree_matches_known_node_layout(
        choices in prop::collection::vec(any::<usize>(), 0..120),
        picks in prop::collection::vec(any::<usize>(), 1..200),
    ) {
        let t = TreeBuilder::from_parents(&parents_from_choices(&choices));
        reveal_and_compare(&t, &picks)?;
    }
}

#[test]
fn every_family_matches_node_data_arena() {
    let pairs: Vec<usize> = (0..64).map(|i| i * 7919 + 13).collect();
    for n in [2, 10, 257, 5000] {
        for fam in Family::ALL {
            let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
            let t = fam.instance(n, &mut rng);
            let old = NodeDataTree::from_parents(&parents_of(&t));
            check_tree(&t, &old, &pairs).unwrap_or_else(|e| panic!("{fam} n={n}: {e}"));
        }
    }
}

#[test]
fn every_family_reveal_matches_known_node_layout() {
    let picks: Vec<usize> = (0..97).map(|i| i * 104_729 + 1).collect();
    for n in [2, 10, 60] {
        for fam in Family::ALL {
            let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
            let t = fam.instance(n, &mut rng);
            reveal_and_compare(&t, &picks).unwrap_or_else(|e| panic!("{fam} n={n}: {e}"));
        }
    }
}
