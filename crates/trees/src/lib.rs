//! Tree and graph substrates for collaborative exploration.
//!
//! This crate provides everything the BFDN reproduction needs to *stand on*:
//!
//! * [`Tree`] — a rooted tree in a flat (CSR) arena, with the
//!   port-numbering convention of the paper (port `0` leads to the
//!   parent at every non-root node),
//! * [`PartialTree`] — the fog-of-war view maintained during online
//!   exploration: explored nodes, discovered edges and *dangling* edges,
//! * [`generators`] — the workload families used by the experiments
//!   (paths, stars, b-ary trees, caterpillars, spiders, combs, brooms,
//!   random trees, and adversarial families for the CTE baseline),
//! * [`Graph`] and [`grid`] — non-tree substrates for the Section 4.3
//!   extension (grid graphs with rectangular obstacles).
//!
//! # Example
//!
//! ```
//! use bfdn_trees::{Tree, TreeBuilder};
//!
//! let mut b = TreeBuilder::new();
//! let root = b.root();
//! let a = b.add_child(root);
//! let _b2 = b.add_child(root);
//! let _c = b.add_child(a);
//! let tree: Tree = b.build();
//! assert_eq!(tree.len(), 4);
//! assert_eq!(tree.depth(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
pub mod generators;
mod graph;
pub mod grid;
mod node;
mod partial;
mod tree;

pub use builder::TreeBuilder;
pub use graph::{Endpoint, Graph, GraphBuilder};
pub use node::{NodeId, Port};
pub use partial::PartialTree;
pub use tree::Tree;
