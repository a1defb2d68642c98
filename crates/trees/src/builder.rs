//! Incremental construction of [`Tree`]s.

use crate::tree::NO_PARENT;
use crate::{NodeId, Tree};

/// Builds a [`Tree`] one node at a time.
///
/// The builder starts with a root; every further node is attached below an
/// existing node with [`add_child`](TreeBuilder::add_child). Children are
/// assigned ports in insertion order. Each node costs one `(parent,
/// depth)` push; [`build`](TreeBuilder::build) lays out the children.
///
/// # Example
///
/// ```
/// use bfdn_trees::TreeBuilder;
/// let mut b = TreeBuilder::new();
/// let root = b.root();
/// let mid = b.add_child(root);
/// b.add_child(mid);
/// let tree = b.build();
/// assert_eq!(tree.depth(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct TreeBuilder {
    /// Parent index per node ([`NO_PARENT`] for the root).
    parent: Vec<u32>,
    /// Distance to the root per node.
    depth: Vec<u32>,
}

impl TreeBuilder {
    /// Creates a builder holding only the root node.
    pub fn new() -> Self {
        TreeBuilder {
            parent: vec![NO_PARENT],
            depth: vec![0],
        }
    }

    /// Creates a builder that will grow to roughly `n` nodes without
    /// reallocating.
    pub fn with_capacity(n: usize) -> Self {
        let mut b = TreeBuilder::new();
        b.parent.reserve(n.saturating_sub(1));
        b.depth.reserve(n.saturating_sub(1));
        b
    }

    /// The root node id.
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId::ROOT
    }

    /// Number of nodes added so far (including the root).
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if only the root exists.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parent.len() == 1
    }

    /// Current depth of a node.
    ///
    /// # Panics
    ///
    /// Panics if `v` was not created by this builder.
    #[inline]
    pub fn depth(&self, v: NodeId) -> usize {
        self.depth[v.index()] as usize
    }

    /// Attaches a new node below `parent` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `parent` was not created by this builder.
    pub fn add_child(&mut self, parent: NodeId) -> NodeId {
        let depth = self.depth[parent.index()] + 1;
        let id = NodeId::new(self.parent.len());
        self.parent.push(parent.index() as u32);
        self.depth.push(depth);
        id
    }

    /// Attaches a downward path of `len` edges below `parent`, returning
    /// the deepest node (`parent` itself when `len == 0`).
    pub fn add_path(&mut self, parent: NodeId, len: usize) -> NodeId {
        let mut cur = parent;
        for _ in 0..len {
            cur = self.add_child(cur);
        }
        cur
    }

    /// Finalizes the tree.
    pub fn build(self) -> Tree {
        Tree::from_parents_and_depths(self.parent, self.depth)
    }

    /// Builds a tree from a parent array: `parents[i]` is the parent of
    /// node `i + 1` and must be smaller than `i + 1` (parents precede
    /// children, as in all arenas of this crate).
    ///
    /// # Panics
    ///
    /// Panics if some `parents[i] > i`.
    ///
    /// # Example
    ///
    /// ```
    /// use bfdn_trees::TreeBuilder;
    /// // root -> 1, root -> 2, 2 -> 3
    /// let tree = TreeBuilder::from_parents(&[0, 0, 2]);
    /// assert_eq!(tree.len(), 4);
    /// assert_eq!(tree.depth(), 2);
    /// ```
    pub fn from_parents(parents: &[usize]) -> Tree {
        let mut b = TreeBuilder::with_capacity(parents.len() + 1);
        for (i, &p) in parents.iter().enumerate() {
            assert!(p <= i, "parent {p} of node {} not yet created", i + 1);
            b.add_child(NodeId::new(p));
        }
        b.build()
    }
}

impl Default for TreeBuilder {
    fn default() -> Self {
        TreeBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_tree() {
        let t = TreeBuilder::new().build();
        assert_eq!(t.len(), 1);
        assert_eq!(t.depth(), 0);
        assert_eq!(t.max_degree(), 0);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn add_path_returns_deepest() {
        let mut b = TreeBuilder::new();
        let root = b.root();
        let tip = b.add_path(root, 4);
        assert_eq!(b.depth(tip), 4);
        let t = b.build();
        assert_eq!(t.depth(), 4);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn add_path_zero_is_identity() {
        let mut b = TreeBuilder::new();
        let root = b.root();
        assert_eq!(b.add_path(root, 0), root);
    }

    #[test]
    fn children_keep_insertion_order() {
        let mut b = TreeBuilder::new();
        let root = b.root();
        let c1 = b.add_child(root);
        let c2 = b.add_child(root);
        let t = b.build();
        assert_eq!(t.children(NodeId::ROOT), &[c1, c2]);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut b = TreeBuilder::with_capacity(100);
        assert!(b.is_empty());
        let root = b.root();
        b.add_child(root);
        assert_eq!(b.len(), 2);
    }
}
