//! Prepared graphs, pinned bit for bit, and the copy-on-write contract of
//! `Graph`.
//!
//! `prepared_graphs_are_frozen` runs `prepare_graph` on every zoo model at
//! batches 128 and 1024 with one mutation list per mutation kind and pins
//! an FNV-1a digest of each result's `to_json`. The digests were frozen
//! before `Graph` shared its tables copy-on-write; a mismatch means a
//! transform's output changed and is never fixed by re-freezing the table.
//!
//! The copy-on-write tests apply each mutator and each transform to a
//! clone and check that the original's JSON bytes and its cached
//! `GraphIndex` are untouched.

use std::sync::Arc;

use dlrm_perf_model::core::sweep::{prepare_graph, GraphMutation, PreparedStore};
use dlrm_perf_model::graph::transform::{
    can_fuse_embedding_bags, can_hoist, fuse_embedding_bags, hoist_earliest, hoistable_nodes,
    independent_groups, move_node, parallelize, replace_op, resize_batch,
};
use dlrm_perf_model::graph::{Graph, NodeId, OpKind, TensorId, TensorMeta};
use dlrm_perf_model::models::zoo;
use dlrm_perf_model::runtime::fnv1a64;

/// The batches every zoo model is prepared at.
const BATCHES: [u64; 2] = [128, 1024];

/// One mutation list per mutation kind for `g`, labelled. Fusion is
/// listed only where it is legal; the hoisted node is the last one a hoist
/// moves (or the last node when none moves); the replaced node sits
/// half-way through execution order.
fn mutation_lists(g: &Graph) -> Vec<(&'static str, Vec<GraphMutation>)> {
    let n = g.node_count();
    let hoisted = hoistable_nodes(g).last().copied().unwrap_or(n - 1);
    let mut lists = vec![("resize", vec![GraphMutation::ResizeBatch(2048)])];
    if can_fuse_embedding_bags(g) {
        lists.push(("fuse", vec![GraphMutation::FuseEmbeddingBags]));
    }
    lists.push(("hoist_all", vec![GraphMutation::HoistAll]));
    lists.push(("hoist_node", vec![GraphMutation::HoistNode(hoisted)]));
    lists.push((
        "replace",
        vec![GraphMutation::ReplaceOp {
            node: n / 2,
            op: OpKind::Sigmoid,
        }],
    ));
    lists
}

/// `(model, batch, kind, digest)` for every prepared graph, or for the
/// error text of a list that does not apply.
fn prepared_digests() -> Vec<String> {
    let mut rows = Vec::new();
    for model in zoo::MODEL_NAMES {
        for batch in BATCHES {
            let base = zoo::build(model, batch).expect("zoo model builds");
            for (kind, muts) in mutation_lists(&base) {
                // A typed failure is part of the frozen outcome too.
                let text = match prepare_graph(&base, &muts) {
                    Ok(g) => g.to_json(),
                    Err(e) => format!("error: {e}"),
                };
                let digest = fnv1a64(text.as_bytes());
                rows.push(format!("{model}@{batch} {kind} {digest:016x}"));
            }
        }
    }
    rows
}

#[test]
fn prepared_graphs_are_frozen() {
    const FROZEN: &[&str] = &[
        "dlrm-default@128 resize 9b0c257c57193942",
        "dlrm-default@128 hoist_all 4854b1cf6df64b11",
        "dlrm-default@128 hoist_node 5ba76104421130ef",
        "dlrm-default@128 replace 059b808a0d11f2ce",
        "dlrm-default@1024 resize 9b0c257c57193942",
        "dlrm-default@1024 hoist_all 3e08c1e83e40eba3",
        "dlrm-default@1024 hoist_node 9433469b354b3b49",
        "dlrm-default@1024 replace 5cefbda6cc076630",
        "dlrm-mlperf@128 resize 4d169ba9738c1749",
        "dlrm-mlperf@128 hoist_all 66e6395acb96661e",
        "dlrm-mlperf@128 hoist_node ea12ebffc5f8786c",
        "dlrm-mlperf@128 replace 6a9a27e152d40c07",
        "dlrm-mlperf@1024 resize 4d169ba9738c1749",
        "dlrm-mlperf@1024 hoist_all c310cadffb8103d6",
        "dlrm-mlperf@1024 hoist_node c7258b24e601fac4",
        "dlrm-mlperf@1024 replace b93a58c766951fbf",
        "dlrm-ddp@128 resize 1378e2611fb86e56",
        "dlrm-ddp@128 hoist_all d3f6a542623a56c7",
        "dlrm-ddp@128 hoist_node c9ef2781f771aa29",
        "dlrm-ddp@128 replace 9e40f71a3f3cfee8",
        "dlrm-ddp@1024 resize 1378e2611fb86e56",
        "dlrm-ddp@1024 hoist_all 1723c182e6d197cf",
        "dlrm-ddp@1024 hoist_node 54d28e4b0f7522f1",
        "dlrm-ddp@1024 replace f7cce3f13a9859d0",
        "dlrm-default-infer@128 resize 56d01741739bc458",
        "dlrm-default-infer@128 hoist_all 06d04114f549182b",
        "dlrm-default-infer@128 hoist_node 9d8c4ba129870a61",
        "dlrm-default-infer@128 replace 5cf377232723d3d6",
        "dlrm-default-infer@1024 resize 56d01741739bc458",
        "dlrm-default-infer@1024 hoist_all 26b8afe9790f0a03",
        "dlrm-default-infer@1024 hoist_node 789f7f2394b51259",
        "dlrm-default-infer@1024 replace 7d7b149355189f2e",
        "dcn@128 resize fdebdb960469cd4a",
        "dcn@128 fuse 3bde093f76801e17",
        "dcn@128 hoist_all 9d835fdafb677780",
        "dcn@128 hoist_node d434fb9a8d71f952",
        "dcn@128 replace 903c9040c0ac7601",
        "dcn@1024 resize fdebdb960469cd4a",
        "dcn@1024 fuse a20b321c4736fe8b",
        "dcn@1024 hoist_all c9aa7e28edc92d0a",
        "dcn@1024 hoist_node 48408a683f4ec73c",
        "dcn@1024 replace f6d90aae38491c57",
        "wide-deep@128 resize c6ec2860803eb623",
        "wide-deep@128 hoist_all dfd5ca100fb97567",
        "wide-deep@128 hoist_node 43e00885956c27af",
        "wide-deep@128 replace 484674ee51887cb0",
        "wide-deep@1024 resize c6ec2860803eb623",
        "wide-deep@1024 hoist_all 636b9fccea20503b",
        "wide-deep@1024 hoist_node a7989422db8b4383",
        "wide-deep@1024 replace 114e3c3cbbca16ac",
        "resnet50@128 resize 64741ec455efff76",
        "resnet50@128 hoist_all ad86e37ce55bd814",
        "resnet50@128 hoist_node b452b773157d16bc",
        "resnet50@128 replace 4d4b43a95d220e4a",
        "resnet50@1024 resize 64741ec455efff76",
        "resnet50@1024 hoist_all 7641bc840121c88a",
        "resnet50@1024 hoist_node 612c089a8f15caaa",
        "resnet50@1024 replace cd042d5a26a590e4",
        "inception@128 resize 884cedc80ba5ba41",
        "inception@128 hoist_all dcca2bc1a3a396b3",
        "inception@128 hoist_node 0b43f5325ef40911",
        "inception@128 replace 94ec90f73dc80d2b",
        "inception@1024 resize 884cedc80ba5ba41",
        "inception@1024 hoist_all 38b875f0cbf54a49",
        "inception@1024 hoist_node aa873c1ad23514f7",
        "inception@1024 replace 5b21a4c6ad0d9de9",
        "transformer@128 resize fff595f957699443",
        "transformer@128 hoist_all bc220790e181e8aa",
        "transformer@128 hoist_node bdb53022e985d410",
        "transformer@128 replace bfb4a5492bc51d3c",
        "transformer@1024 resize fff595f957699443",
        "transformer@1024 hoist_all 709be8a79e914c2a",
        "transformer@1024 hoist_node 722f1139a6953790",
        "transformer@1024 replace 742e865fe8d480bc",
    ];
    let got = prepared_digests();
    let want: Vec<String> = FROZEN.iter().map(|s| s.to_string()).collect();
    assert_eq!(got, want, "a prepared graph changed bitwise");
}

/// `hoistable_nodes` as it was defined before it read the graph's cached
/// index: one `Graph::producer` scan per input, through `predecessors`.
fn hoistable_by_scan(g: &Graph) -> Vec<usize> {
    (0..g.node_count())
        .filter(|&i| {
            let node = g.nodes()[i].id;
            let earliest = g
                .predecessors(node)
                .iter()
                .map(|p| p.0 + 1)
                .max()
                .unwrap_or(0);
            earliest < node.0
        })
        .collect()
}

#[test]
fn hoist_legality_matches_the_producer_scan_on_every_prepared_graph() {
    for model in zoo::MODEL_NAMES {
        for batch in BATCHES {
            let base = zoo::build(model, batch).expect("zoo model builds");
            let mut graphs = vec![("base", base.clone())];
            for (kind, muts) in mutation_lists(&base) {
                if let Ok(g) = prepare_graph(&base, &muts) {
                    graphs.push((kind, g));
                }
            }
            for (kind, g) in &graphs {
                let want = hoistable_by_scan(g);
                assert_eq!(hoistable_nodes(g), want, "{model}@{batch} {kind}");
                for pos in 0..=g.node_count() {
                    assert_eq!(
                        can_hoist(g, pos),
                        want.contains(&pos),
                        "{model}@{batch} {kind} {pos}"
                    );
                }
            }
        }
    }
}

#[test]
fn a_store_extending_a_stored_parent_prepares_what_prepare_graph_prepares() {
    // The store applies only the last mutation to a stored parent's graph;
    // the result must be `prepare_graph`'s from the base, errors included,
    // and the parent lookup must not count as a hit.
    for model in zoo::MODEL_NAMES {
        let base = zoo::build(model, 128).expect("zoo model builds");
        let lists = mutation_lists(&base);
        for (head_kind, head) in &lists {
            for (tail_kind, tail) in &lists {
                let store = PreparedStore::new();
                store.get_or_prepare(&base, head);
                let list: Vec<GraphMutation> = head.iter().chain(tail).cloned().collect();
                let text = |g: &Result<Graph, _>| match g {
                    Ok(g) => g.to_json(),
                    Err(e) => format!("error: {e}"),
                };
                let via_store = text(store.get_or_prepare(&base, &list).as_ref());
                let direct = text(&prepare_graph(&base, &list));
                assert!(via_store == direct, "{model}: {head_kind} then {tail_kind}");
                let stats = store.stats();
                assert_eq!(
                    (stats.hits, stats.misses),
                    (0, 2),
                    "{model}: {head_kind} then {tail_kind}"
                );
            }
        }
    }
}

/// dcn at batch 128: it has fusable embedding bags, hoistable nodes and
/// independent branches, so every transform below changes it.
fn cow_base() -> Graph {
    zoo::build("dcn", 128).expect("dcn builds")
}

/// Applies `edit` to a clone of `base` and checks the copy-on-write
/// contract: the clone changed, while `base`'s JSON bytes and its cached
/// index `Arc` did not.
fn edit_a_clone(what: &str, base: &Graph, edit: impl FnOnce(&mut Graph)) {
    let json = base.to_json();
    let index = base.index();
    let mut clone = base.clone();
    assert!(
        Arc::ptr_eq(&clone.index(), &index),
        "{what}: a clone shares the index"
    );
    edit(&mut clone);
    assert_ne!(
        clone.to_json(),
        json,
        "{what}: the edit must change the clone"
    );
    assert_eq!(base.to_json(), json, "{what}: the original's bytes changed");
    assert!(
        Arc::ptr_eq(&base.index(), &index),
        "{what}: the original's index was dropped"
    );
}

#[test]
fn every_mutator_on_a_clone_leaves_the_original_untouched() {
    let base = cow_base();
    let x = TensorId(0);
    edit_a_clone("add_tensor", &base, |g| {
        g.add_tensor(TensorMeta::activation(&[4, 4]));
    });
    edit_a_clone("add_node", &base, |g| {
        let y = g.add_tensor(TensorMeta::activation(&[4, 4]));
        g.add_op(OpKind::Relu, vec![x], vec![y]);
    });
    edit_a_clone("tensor_mut", &base, |g| g.tensor_mut(x).shape.push(1));
    edit_a_clone("node_mut", &base, |g| {
        g.node_mut(NodeId(0)).expect("node 0").stream = 7
    });
    edit_a_clone("set_nodes", &base, |g| {
        let mut nodes = g.nodes().to_vec();
        nodes.pop();
        g.set_nodes(nodes);
    });
}

#[test]
fn every_transform_on_a_clone_leaves_the_original_untouched() {
    let base = cow_base();
    let hoisted = *hoistable_nodes(&base)
        .last()
        .expect("dcn has a hoistable node");
    let earliest = base
        .predecessors(NodeId(hoisted))
        .iter()
        .map(|p| p.0 + 1)
        .max()
        .unwrap_or(0);
    edit_a_clone("resize_batch", &base, |g| {
        resize_batch(g, 2048).expect("dcn resizes");
    });
    edit_a_clone("fuse_embedding_bags", &base, |g| {
        fuse_embedding_bags(g).expect("dcn fuses");
    });
    edit_a_clone("replace_op", &base, |g| {
        replace_op(g, NodeId(hoisted), OpKind::Sigmoid, "swapped").expect("node exists");
    });
    edit_a_clone("move_node", &base, |g| {
        move_node(g, NodeId(hoisted), earliest).expect("a legal move");
    });
    edit_a_clone("hoist_earliest", &base, |g| {
        assert_eq!(
            hoist_earliest(g, NodeId(hoisted)).expect("node exists"),
            earliest
        );
    });
    edit_a_clone("parallelize", &base, |g| {
        let bags: Vec<NodeId> = g
            .nodes()
            .iter()
            .filter(|n| n.op == OpKind::EmbeddingBag)
            .map(|n| n.id)
            .collect();
        let groups = independent_groups(g, &bags);
        assert!(groups.len() > 1, "dcn's bags are independent");
        parallelize(g, &groups).expect("independent groups");
    });
}

#[test]
fn a_resize_shares_the_node_table_and_a_hoist_the_tensor_table() {
    // The table a mutation leaves alone stays shared: its rows keep their
    // addresses in the prepared graph.
    let base = cow_base();
    let resized = prepare_graph(&base, &[GraphMutation::ResizeBatch(2048)]).expect("resizes");
    assert!(std::ptr::eq(resized.nodes(), base.nodes()));
    assert!(!std::ptr::eq(
        resized.tensor(TensorId(0)),
        base.tensor(TensorId(0))
    ));
    let hoisted = prepare_graph(&base, &[GraphMutation::HoistAll]).expect("hoists");
    assert!(std::ptr::eq(
        hoisted.tensor(TensorId(0)),
        base.tensor(TensorId(0))
    ));
    assert!(!std::ptr::eq(hoisted.nodes(), base.nodes()));
}
