//! Round-trip tests for the optional serde support (run with
//! `cargo test -p bfdn-trees --features serde`).

#![cfg(feature = "serde")]

use bfdn_trees::generators::{self, Family};
use bfdn_trees::{NodeId, Port, Tree};
use rand::SeedableRng;

/// The workspace deliberately has no JSON dependency, so the round-trip
/// goes through serde's self-describing value tree: serialize to a
/// `serde::Value`, deserialize back, and compare.
#[test]
fn serde_traits_are_derived() {
    fn assert_serde<T: serde::Serialize + serde::de::DeserializeOwned>() {}
    assert_serde::<Tree>();
    assert_serde::<NodeId>();
    assert_serde::<Port>();
    assert_serde::<bfdn_trees::grid::Rect>();
    assert_serde::<bfdn_trees::Endpoint>();
}

#[test]
fn tree_round_trips_through_serde_values() {
    let t = generators::comb(4, 2);
    let v = serde::to_value(&t);
    assert_ne!(v, serde::Value::Unit, "a tree must serialize to real data");

    let u: Tree = serde::from_value(&v).expect("tree deserializes");
    assert_eq!(t.len(), u.len());
    for n in t.node_ids() {
        assert_eq!(t.parent(n), u.parent(n));
    }
    assert_eq!(serde::to_value(&u), v, "re-serialization is stable");
}

#[test]
fn every_family_round_trips_with_identical_structure() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    for fam in Family::ALL {
        for n in [2, 10, 257] {
            let t = fam.instance(n, &mut rng);
            let u: Tree = serde::from_value(&serde::to_value(&t)).expect("tree deserializes");
            assert_eq!(t.len(), u.len(), "{fam} n={n}");
            for v in t.node_ids() {
                assert_eq!(t.children(v), u.children(v), "{fam} n={n} children of {v}");
                assert_eq!(t.node_depth(v), u.node_depth(v), "{fam} n={n} depth of {v}");
                for p in 0..=t.degree(v) {
                    let p = Port::new(p);
                    assert_eq!(t.neighbor(v, p), u.neighbor(v, p), "{fam} n={n} {v}:{p}");
                }
            }
        }
    }
}

/// The serialized form of a tree whose parent array is `parents`.
fn tree_value(parents: &[Option<usize>]) -> serde::Value {
    let parents: Vec<Option<NodeId>> = parents.iter().map(|p| p.map(NodeId::new)).collect();
    serde::Value::NewtypeStruct {
        name: "Tree",
        value: Box::new(serde::to_value(&parents)),
    }
}

#[test]
fn tree_value_helper_matches_the_real_encoding() {
    let t = generators::comb(2, 1);
    let parents: Vec<Option<usize>> = t
        .node_ids()
        .map(|v| t.parent(v).map(NodeId::index))
        .collect();
    assert_eq!(tree_value(&parents), serde::to_value(&t));
}

#[test]
fn non_trees_are_rejected() {
    for (parents, why) in [
        (&[][..], "empty parent array"),
        (&[Some(0), None][..], "root with a parent"),
        (&[None, Some(0), Some(2)][..], "parent not before its child"),
        (&[None, Some(0), Some(5)][..], "parent out of range"),
        (&[None, Some(0), None][..], "second root"),
    ] {
        let got: Result<Tree, _> = serde::from_value(&tree_value(parents));
        assert!(got.is_err(), "{why} must be rejected");
    }
}

#[test]
fn node_ids_round_trip_through_serde_values() {
    let t = generators::comb(3, 3);
    for n in t.node_ids() {
        let back: NodeId = serde::from_value(&serde::to_value(&n)).expect("node id deserializes");
        assert_eq!(n, back);
    }
}

#[test]
fn trees_survive_a_clone_after_generation() {
    // Structural sanity that the serde-annotated types still behave.
    let t = generators::comb(4, 2);
    let u = t.clone();
    assert_eq!(t.len(), u.len());
    for v in t.node_ids() {
        assert_eq!(t.parent(v), u.parent(v));
    }
}
