//! The partially explored tree (fog-of-war view) of Section 2.
//!
//! During online exploration, `V` is the set of *explored* nodes (occupied
//! by at least one robot in the past) and `E` the set of *discovered*
//! edges (at least one explored endpoint). Discovered edges with exactly
//! one explored endpoint are *dangling*. [`PartialTree`] maintains exactly
//! this information: an explorer that only reads a `PartialTree` provably
//! never sees beyond what the paper's model reveals.

use crate::{NodeId, Port};

/// `parent` of the root.
const NO_PARENT: u32 = u32::MAX;
/// `depth` of an unexplored node.
const UNEXPLORED: u32 = u32::MAX;
/// A down slot whose edge is still dangling.
const DANGLING: u32 = u32::MAX;

/// Narrows a count or index to a record field.
#[inline]
fn to_u32(x: usize) -> u32 {
    u32::try_from(x).expect("partial-tree field exceeds u32::MAX")
}

/// Everything known about one node, packed (see "Layout" on
/// [`PartialTree`]).
#[derive(Clone, Copy, Debug)]
struct Record {
    /// Parent index; [`NO_PARENT`] for the root.
    parent: u32,
    /// Depth; [`UNEXPLORED`] until the node is explored.
    depth: u32,
    /// Total number of ports (degree in the underlying tree — visible on
    /// arrival per the model of Section 2).
    degree: u32,
    /// Number of dangling edges still adjacent to this node.
    dangling: u32,
    /// Index (within this node's down slots) of the first dangling slot
    /// (== the slot count when none) — keeps repeated first-dangling
    /// queries amortized O(1).
    first_dangling: u32,
    /// Offset of this node's down slots in [`PartialTree::down`]. Slot
    /// `i` corresponds to port `i + 1` at non-root nodes and port `i` at
    /// the root.
    down_start: u32,
    /// The port *at the parent* through which this node was discovered
    /// (unused at the root).
    parent_port: u16,
}

impl Record {
    const UNEXPLORED: Record = Record {
        parent: NO_PARENT,
        depth: UNEXPLORED,
        degree: 0,
        dangling: 0,
        first_dangling: 0,
        down_start: 0,
        parent_port: 0,
    };

    #[inline]
    fn is_explored(&self) -> bool {
        self.depth != UNEXPLORED
    }

    /// `1` at non-root nodes (port 0 is the parent), `0` at the root.
    #[inline]
    fn down_offset(&self) -> usize {
        usize::from(self.parent != NO_PARENT)
    }

    /// Range of this node's down slots in [`PartialTree::down`].
    #[inline]
    fn down_range(&self) -> std::ops::Range<usize> {
        let start = self.down_start as usize;
        start..start + self.degree as usize - self.down_offset()
    }
}

/// The partially explored tree `T_online = (V, E)`.
///
/// Maintained by the simulator; read by explorers. All queries are indexed
/// by the ground-truth [`NodeId`]s, but information about a node is only
/// available once the node has been explored.
///
/// # Open sets
///
/// Open nodes (explored, ≥ 1 dangling edge) are listed per depth in
/// plain `Vec`s, appended in exploration order. A node is listed once,
/// when it is explored, and is never removed eagerly when it closes:
/// readers skip listed nodes whose dangling count has reached zero, and
/// a list is compacted once it holds more closed nodes than open ones,
/// so every close costs amortized O(1).
///
/// The list at the minimum open depth `d` is sorted by node id once,
/// when the minimum reaches `d`. It never needs sorting again: the
/// minimum only moves forward, and it reaches `d` only after every node
/// at depth `d − 1` is closed, so every node at depth `d` has already
/// been revealed and that list can only shrink. This is the list
/// Algorithm 1's `Reanchor` scans every time, in id order, for free.
/// Deeper lists, which only [`PartialTree::open_nodes_snapshot`] and
/// off-minimum [`PartialTree::open_nodes_at_depth`] queries read, are
/// sorted on demand.
///
/// # Layout
///
/// Each node is one packed `Copy` record (parent, depth, degree,
/// dangling count, first dangling slot, down-slot offset and parent
/// port: 28 bytes) in a flat array sized to `capacity` up front; an
/// unexplored node is a record whose depth is `u32::MAX`. The down
/// slots of all explored nodes live in one shared array, reserved to
/// `capacity` up front: exploring a node appends its slots (one per
/// downward port, `u32::MAX` while dangling, the child's id once
/// traversed), so a node's slots are contiguous and no node owns an
/// allocation.
///
/// # Example
///
/// ```
/// use bfdn_trees::{NodeId, PartialTree, Port};
///
/// // The simulator reveals the root with 2 adjacent (dangling) edges.
/// let mut pt = PartialTree::new(10, 2);
/// assert_eq!(pt.total_dangling(), 2);
///
/// // A robot traverses the dangling edge at port 0 and discovers a leaf.
/// pt.attach(NodeId::ROOT, Port::new(0), NodeId::new(1), 1);
/// assert_eq!(pt.total_dangling(), 1);
/// assert!(pt.is_complete() == false);
/// ```
#[derive(Clone, Debug)]
pub struct PartialTree {
    /// One record per node of the underlying tree.
    nodes: Vec<Record>,
    /// The down slots of every explored node, appended on exploration.
    down: Vec<u32>,
    explored: Vec<NodeId>,
    total_dangling: usize,
    /// Nodes listed open per depth (see "Open sets" above): every open
    /// node at its depth, plus closed ones not yet compacted away.
    /// Id-sorted at `min_open_cursor`, in exploration order deeper down.
    open_by_depth: Vec<Vec<NodeId>>,
    /// Number of still-open nodes in each `open_by_depth` list.
    open_count: Vec<usize>,
    /// The minimum open depth while any node is open. The true minimum
    /// never decreases over a run (new open nodes appear strictly below
    /// their parent), so a forward-advancing cursor makes
    /// [`PartialTree::min_open_depth`] amortized O(1).
    min_open_cursor: usize,
}

impl PartialTree {
    /// Starts an exploration: only the root is explored, with
    /// `root_degree` dangling edges. `capacity` is the number of nodes of
    /// the underlying tree (used only to size the arena; it carries no
    /// information an online algorithm could exploit, and explorers in
    /// this workspace never read it).
    pub fn new(capacity: usize, root_degree: usize) -> Self {
        let capacity = capacity.max(1);
        let mut nodes = vec![Record::UNEXPLORED; capacity];
        nodes[0] = Record {
            depth: 0,
            degree: to_u32(root_degree),
            dangling: to_u32(root_degree),
            ..Record::UNEXPLORED
        };
        let mut down = Vec::with_capacity(capacity.max(root_degree));
        down.resize(root_degree, DANGLING);
        let root_open = usize::from(root_degree > 0);
        PartialTree {
            nodes,
            down,
            explored: vec![NodeId::ROOT],
            total_dangling: root_degree,
            open_by_depth: vec![vec![NodeId::ROOT; root_open]],
            open_count: vec![root_open],
            min_open_cursor: 0,
        }
    }

    /// Records the traversal of the dangling edge at `(u, port)` leading
    /// to the newly explored node `child` of degree `child_degree`.
    ///
    /// Calling this for an edge that is already explored is a no-op (two
    /// robots may cross the same dangling edge in the same round under
    /// non-BFDN explorers).
    ///
    /// # Panics
    ///
    /// Panics if `u` is unexplored, `port` is not a downward port of `u`,
    /// or `child` is already explored via a different edge.
    pub fn attach(&mut self, u: NodeId, port: Port, child: NodeId, child_degree: usize) {
        let ku = self.nodes[u.index()];
        assert!(ku.is_explored(), "attach below an unexplored node");
        let slot = port
            .index()
            .checked_sub(ku.down_offset())
            .expect("attach through the parent port");
        let slots = &mut self.down[ku.down_range()];
        match slots.get(slot) {
            Some(&DANGLING) => {}
            Some(&existing) => {
                assert_eq!(
                    existing as usize,
                    child.index(),
                    "port already leads to a different node"
                );
                return;
            }
            None => panic!("port {port} out of range at node {u}"),
        }
        slots[slot] = to_u32(child.index());
        let mut first = ku.first_dangling as usize;
        while first < slots.len() && slots[first] != DANGLING {
            first += 1;
        }
        let rec = &mut self.nodes[u.index()];
        rec.first_dangling = first as u32;
        rec.dangling -= 1;
        let now_closed = rec.dangling == 0;
        self.total_dangling -= 1;
        if now_closed {
            self.close(ku.depth as usize);
        }

        assert!(
            !self.nodes[child.index()].is_explored(),
            "node {child} explored twice"
        );
        let child_depth = ku.depth + 1;
        // All of child's ports except the parent port are dangling.
        let child_dangling = child_degree - 1;
        self.nodes[child.index()] = Record {
            parent: to_u32(u.index()),
            depth: child_depth,
            degree: to_u32(child_degree),
            dangling: to_u32(child_dangling),
            first_dangling: 0,
            down_start: to_u32(self.down.len()),
            parent_port: port.index() as u16,
        };
        self.down.resize(self.down.len() + child_dangling, DANGLING);
        self.explored.push(child);
        self.total_dangling += child_dangling;
        let d = child_depth as usize;
        if self.open_by_depth.len() <= d {
            self.open_by_depth.resize_with(d + 1, Vec::new);
            self.open_count.resize(d + 1, 0);
        }
        if child_dangling > 0 {
            // `d` lies strictly below the minimum open depth (`u` was
            // open), so the sorted list at the minimum is never appended
            // to.
            self.open_by_depth[d].push(child);
            self.open_count[d] += 1;
        }
        // Keep the min-open cursor exact (see `min_open_depth`).
        let before = self.min_open_cursor;
        while self.min_open_cursor < self.open_count.len()
            && self.open_count[self.min_open_cursor] == 0
        {
            self.min_open_cursor += 1;
        }
        if self.min_open_cursor != before && self.min_open_cursor < self.open_by_depth.len() {
            // The new minimum's list is complete: sort it once.
            let d = self.min_open_cursor;
            let mut list = std::mem::take(&mut self.open_by_depth[d]);
            list.retain(|&v| self.is_open(v));
            list.sort_unstable();
            self.open_by_depth[d] = list;
        }
    }

    /// Accounts for a node at depth `d` that just closed, compacting
    /// that depth's list once closed entries outnumber open ones
    /// (`retain` keeps the order, so a sorted list stays sorted).
    fn close(&mut self, d: usize) {
        self.open_count[d] -= 1;
        if self.open_by_depth[d].len() > 2 * self.open_count[d] {
            let mut list = std::mem::take(&mut self.open_by_depth[d]);
            list.retain(|&v| self.is_open(v));
            self.open_by_depth[d] = list;
        }
    }

    /// The still-open nodes listed at `depth`, in list order.
    fn listed_open(&self, depth: usize) -> impl Iterator<Item = NodeId> + '_ {
        self.open_by_depth
            .get(depth)
            .map_or(&[][..], Vec::as_slice)
            .iter()
            .copied()
            .filter(|&v| self.is_open(v))
    }

    /// The open nodes at `depth` in increasing id order, copied out and
    /// sorted (the list is only kept sorted at the minimum open depth).
    fn sorted_open(&self, depth: usize) -> Vec<NodeId> {
        let mut open: Vec<NodeId> = self.listed_open(depth).collect();
        open.sort_unstable();
        open
    }

    /// Returns `true` once `v` has been explored.
    #[inline]
    pub fn is_explored(&self, v: NodeId) -> bool {
        self.nodes.get(v.index()).is_some_and(Record::is_explored)
    }

    /// Parent of an explored node.
    ///
    /// # Panics
    ///
    /// Panics if `v` is unexplored.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        let k = self.expect_known(v);
        (k.parent != NO_PARENT).then(|| NodeId::new(k.parent as usize))
    }

    /// Depth of an explored node.
    ///
    /// # Panics
    ///
    /// Panics if `v` is unexplored.
    #[inline]
    pub fn depth(&self, v: NodeId) -> usize {
        self.expect_known(v).depth as usize
    }

    /// The port *at the parent* through which `v` was discovered (`None`
    /// for the root).
    ///
    /// # Panics
    ///
    /// Panics if `v` is unexplored.
    #[inline]
    pub fn parent_port(&self, v: NodeId) -> Option<Port> {
        let k = self.expect_known(v);
        (k.parent != NO_PARENT).then(|| Port::new(k.parent_port as usize))
    }

    /// Degree of an explored node.
    ///
    /// # Panics
    ///
    /// Panics if `v` is unexplored.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.expect_known(v).degree as usize
    }

    #[inline]
    fn expect_known(&self, v: NodeId) -> &Record {
        match self.nodes.get(v.index()) {
            Some(k) if k.is_explored() => k,
            _ => panic!("node {v} unexplored"),
        }
    }

    /// The down slots of the explored node whose record is `k` (see
    /// "Layout").
    #[inline]
    fn down_slots(&self, k: &Record) -> &[u32] {
        &self.down[k.down_range()]
    }

    /// The node behind down-port `port` of `v`: `Some(child)` if that edge
    /// has been traversed, `None` if it is dangling.
    ///
    /// # Panics
    ///
    /// Panics if `v` is unexplored or `port` is the parent port / out of
    /// range.
    pub fn child_at(&self, v: NodeId, port: Port) -> Option<NodeId> {
        let k = self.expect_known(v);
        let slot = port
            .index()
            .checked_sub(k.down_offset())
            .expect("parent port is not a down port");
        let c = self.down_slots(k)[slot];
        (c != DANGLING).then(|| NodeId::new(c as usize))
    }

    /// Iterates over the dangling ports of `v` in increasing port order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is unexplored.
    pub fn dangling_ports(&self, v: NodeId) -> impl Iterator<Item = Port> + '_ {
        let k = self.expect_known(v);
        // Slots before `first_dangling` are all traversed; skip them.
        let skip = k.first_dangling as usize + k.down_offset();
        self.down_slots(k)[k.first_dangling as usize..]
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == DANGLING)
            .map(move |(i, _)| Port::new(i + skip))
    }

    /// Iterates over the traversed downward edges of `v` as
    /// `(port, child)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `v` is unexplored.
    pub fn known_children(&self, v: NodeId) -> impl Iterator<Item = (Port, NodeId)> + '_ {
        let k = self.expect_known(v);
        let off = k.down_offset();
        self.down_slots(k)
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != DANGLING)
            .map(move |(i, &c)| (Port::new(i + off), NodeId::new(c as usize)))
    }

    /// Returns `true` if `v` is explored and still has a dangling edge
    /// ("open" in the terminology of Section 5).
    #[inline]
    pub fn is_open(&self, v: NodeId) -> bool {
        // Unexplored records have a zero dangling count.
        self.nodes.get(v.index()).is_some_and(|k| k.dangling > 0)
    }

    /// Total number of dangling edges; exploration of the tree part is
    /// complete when this is zero.
    #[inline]
    pub fn total_dangling(&self) -> usize {
        self.total_dangling
    }

    /// Returns `true` when there are no dangling edges left.
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.total_dangling == 0
    }

    /// Size of the node arena (the `capacity` passed to
    /// [`PartialTree::new`]). Every [`NodeId`] this tree will ever reveal
    /// is a dense index below this bound, so explorers can keep per-node
    /// state in flat arrays sized once instead of hash tables.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.nodes.len()
    }

    /// Number of explored nodes.
    #[inline]
    pub fn num_explored(&self) -> usize {
        self.explored.len()
    }

    /// Explored nodes in order of first exploration.
    #[inline]
    pub fn explored_nodes(&self) -> &[NodeId] {
        &self.explored
    }

    /// The minimum depth at which an open node exists.
    ///
    /// O(1): the minimum open depth never decreases over a run (new open
    /// nodes appear strictly below their parent), so [`PartialTree::attach`]
    /// keeps a cursor pointing at the first non-empty depth.
    pub fn min_open_depth(&self) -> Option<usize> {
        self.open_count
            .get(self.min_open_cursor)
            .is_some_and(|&n| n > 0)
            .then_some(self.min_open_cursor)
    }

    /// All open nodes as `(depth, node)` pairs in (depth, id) order —
    /// the snapshot `BFDN_ℓ` hands to its recursive instances.
    pub fn open_nodes_snapshot(&self) -> Vec<(usize, NodeId)> {
        (self.min_open_cursor..self.open_by_depth.len())
            .flat_map(|d| self.sorted_open(d).into_iter().map(move |v| (d, v)))
            .collect()
    }

    /// Open nodes at a given depth, in increasing node-id order.
    ///
    /// At the minimum open depth this walks the already-sorted list;
    /// any other depth is copied out and sorted first.
    pub fn open_nodes_at_depth(&self, depth: usize) -> impl Iterator<Item = NodeId> + '_ {
        let (sorted, copied) = if depth == self.min_open_cursor {
            (Some(self.listed_open(depth)), Vec::new())
        } else {
            (None, self.sorted_open(depth))
        };
        sorted.into_iter().flatten().chain(copied)
    }

    /// The open nodes of minimum depth — the candidate anchor set `U` of
    /// Algorithm 1, line 26 — with their shared depth.
    pub fn min_depth_open_nodes(&self) -> Option<(usize, Vec<NodeId>)> {
        let d = self.min_open_depth()?;
        Some((d, self.open_nodes_at_depth(d).collect()))
    }

    /// Open nodes at depth at most `max_depth` whose depth is minimal —
    /// the modified candidate set used by `BFDN₁(k, k, d)` in Section 5.
    pub fn min_depth_open_nodes_capped(&self, max_depth: usize) -> Option<(usize, Vec<NodeId>)> {
        let d = self.min_open_depth()?;
        if d > max_depth {
            return None;
        }
        Some((d, self.open_nodes_at_depth(d).collect()))
    }

    /// Walks up from `v` to the root in the discovered tree.
    ///
    /// # Panics
    ///
    /// Panics if `v` is unexplored.
    pub fn path_to_root(&self, v: NodeId) -> Vec<NodeId> {
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.parent(cur) {
            path.push(p);
            cur = p;
        }
        path
    }

    /// The sequence of edges (as `(node, port)` hops) leading from the
    /// root down to `v` through explored edges — what `BFDN` stacks into
    /// `S_i` on reanchoring.
    ///
    /// # Panics
    ///
    /// Panics if `v` is unexplored.
    pub fn route_from_root(&self, v: NodeId) -> Vec<NodeId> {
        let mut path = self.path_to_root(v);
        path.reverse();
        path
    }

    /// `true` if `anc` is an ancestor of `v` (or equal) in the discovered
    /// tree.
    ///
    /// # Panics
    ///
    /// Panics if either node is unexplored.
    pub fn is_ancestor(&self, anc: NodeId, v: NodeId) -> bool {
        let target = self.depth(anc);
        let mut cur = v;
        while self.depth(cur) > target {
            cur = self.parent(cur).expect("depth > 0 has a parent");
        }
        cur == anc
    }

    /// Checks internal invariants (counters vs. recomputed values); used
    /// in tests.
    pub fn validate(&self) -> Result<(), String> {
        // Which nodes each depth's open list names, with the list's
        // depth; a node listed twice is an error.
        let mut listed_at: Vec<Option<usize>> = vec![None; self.nodes.len()];
        for (d, list) in self.open_by_depth.iter().enumerate() {
            for v in list {
                if !self.is_explored(*v) {
                    return Err(format!("{v} listed open but unexplored"));
                }
                if self.depth(*v) != d {
                    return Err(format!(
                        "{v} listed open at depth {d}, lives at {}",
                        self.depth(*v)
                    ));
                }
                if listed_at[v.index()].replace(d).is_some() {
                    return Err(format!("{v} listed open twice"));
                }
            }
            let open = list.iter().filter(|&&v| self.is_open(v)).count();
            if self.open_count.get(d) != Some(&open) {
                return Err(format!("depth {d}: open counter mismatch"));
            }
        }
        if self.open_count.len() != self.open_by_depth.len() {
            return Err("open counters and lists differ in length".into());
        }
        if let Some(list) = self.open_by_depth.get(self.min_open_cursor) {
            if !list.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!(
                    "open list at minimum depth {} not strictly id-sorted",
                    self.min_open_cursor
                ));
            }
        }
        let mut dangling = 0usize;
        let mut min_open = None;
        let mut slots = 0usize;
        for v in &self.explored {
            if !self.is_explored(*v) {
                return Err(format!("{v} listed explored but unknown"));
            }
            let k = &self.nodes[v.index()];
            if k.down_range().end > self.down.len() {
                return Err(format!("{v}: down slots past the arena"));
            }
            slots += k.down_range().len();
            let listed = self.dangling_ports(*v).count();
            if listed != k.dangling as usize {
                return Err(format!("{v}: dangling counter mismatch"));
            }
            let first = self.down_slots(k).iter().position(|&c| c == DANGLING);
            if first.unwrap_or(k.down_range().len()) != k.first_dangling as usize {
                return Err(format!("{v}: first dangling slot mismatch"));
            }
            dangling += listed;
            if k.dangling > 0 {
                if listed_at[v.index()].is_none() {
                    return Err(format!("{v}: open but not listed at its depth"));
                }
                let d = k.depth as usize;
                min_open = Some(min_open.map_or(d, |m: usize| m.min(d)));
            }
        }
        if slots != self.down.len() {
            return Err("down-slot arena holds slots of no explored node".into());
        }
        if dangling != self.total_dangling {
            return Err("total dangling mismatch".into());
        }
        // The cached minimum-open-depth cursor must agree with a full
        // recomputation.
        if self.min_open_depth() != min_open {
            return Err(format!(
                "min-open cursor {:?} disagrees with recomputed {min_open:?}",
                self.min_open_depth()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reveal a small tree by hand:
    /// root(2 ports) -> a(3 ports), b(1 port).
    fn two_level() -> PartialTree {
        let mut pt = PartialTree::new(8, 2);
        pt.attach(NodeId::ROOT, Port::new(0), NodeId::new(1), 3);
        pt.attach(NodeId::ROOT, Port::new(1), NodeId::new(2), 1);
        pt
    }

    #[test]
    fn initial_state() {
        let pt = PartialTree::new(4, 3);
        assert_eq!(pt.num_explored(), 1);
        assert_eq!(pt.total_dangling(), 3);
        assert_eq!(pt.min_open_depth(), Some(0));
        assert!(pt.is_open(NodeId::ROOT));
        assert!(pt.validate().is_ok());
    }

    #[test]
    fn attach_updates_counts() {
        let pt = two_level();
        // a has 2 dangling, b has 0.
        assert_eq!(pt.total_dangling(), 2);
        assert_eq!(pt.depth(NodeId::new(1)), 1);
        assert_eq!(pt.parent(NodeId::new(1)), Some(NodeId::ROOT));
        assert!(!pt.is_open(NodeId::ROOT));
        assert!(pt.is_open(NodeId::new(1)));
        assert!(!pt.is_open(NodeId::new(2)));
        assert_eq!(pt.min_open_depth(), Some(1));
        assert!(pt.validate().is_ok());
    }

    #[test]
    fn dangling_ports_listing() {
        let pt = two_level();
        let a = NodeId::new(1);
        let ports: Vec<_> = pt.dangling_ports(a).collect();
        // a is non-root: down ports are 1 and 2.
        assert_eq!(ports, vec![Port::new(1), Port::new(2)]);
        assert_eq!(pt.child_at(a, Port::new(1)), None);
    }

    #[test]
    fn completion() {
        let mut pt = two_level();
        pt.attach(NodeId::new(1), Port::new(1), NodeId::new(3), 1);
        pt.attach(NodeId::new(1), Port::new(2), NodeId::new(4), 1);
        assert!(pt.is_complete());
        assert_eq!(pt.min_open_depth(), None);
        assert_eq!(pt.num_explored(), 5);
        assert!(pt.validate().is_ok());
    }

    #[test]
    fn duplicate_attach_is_noop() {
        let mut pt = two_level();
        pt.attach(NodeId::new(1), Port::new(1), NodeId::new(3), 1);
        pt.attach(NodeId::new(1), Port::new(1), NodeId::new(3), 1);
        assert_eq!(pt.num_explored(), 4);
    }

    #[test]
    #[should_panic(expected = "different node")]
    fn conflicting_attach_panics() {
        let mut pt = two_level();
        pt.attach(NodeId::new(1), Port::new(1), NodeId::new(3), 1);
        pt.attach(NodeId::new(1), Port::new(1), NodeId::new(4), 1);
    }

    #[test]
    #[should_panic(expected = "below an unexplored node")]
    fn attach_below_unexplored_panics() {
        let mut pt = two_level();
        pt.attach(NodeId::new(5), Port::new(1), NodeId::new(6), 1);
    }

    #[test]
    #[should_panic(expected = "through the parent port")]
    fn attach_through_parent_port_panics() {
        let mut pt = two_level();
        pt.attach(NodeId::new(1), Port::UP, NodeId::new(3), 1);
    }

    #[test]
    fn min_depth_open_nodes_is_candidate_set() {
        let pt = two_level();
        let (d, set) = pt.min_depth_open_nodes().unwrap();
        assert_eq!(d, 1);
        assert_eq!(set, vec![NodeId::new(1)]);
    }

    #[test]
    fn capped_candidates() {
        let pt = two_level();
        assert!(pt.min_depth_open_nodes_capped(0).is_none());
        assert!(pt.min_depth_open_nodes_capped(1).is_some());
    }

    #[test]
    fn ancestor_and_paths() {
        let mut pt = two_level();
        pt.attach(NodeId::new(1), Port::new(1), NodeId::new(3), 2);
        assert!(pt.is_ancestor(NodeId::ROOT, NodeId::new(3)));
        assert!(pt.is_ancestor(NodeId::new(1), NodeId::new(3)));
        assert!(!pt.is_ancestor(NodeId::new(2), NodeId::new(3)));
        assert_eq!(
            pt.route_from_root(NodeId::new(3)),
            vec![NodeId::ROOT, NodeId::new(1), NodeId::new(3)]
        );
    }

    #[test]
    fn known_children_lists_traversed_edges() {
        let mut pt = two_level();
        pt.attach(NodeId::new(1), Port::new(2), NodeId::new(3), 1);
        let kids: Vec<_> = pt.known_children(NodeId::new(1)).collect();
        assert_eq!(kids, vec![(Port::new(2), NodeId::new(3))]);
    }
}
