//! Differential tests for the workspace query path: `Laca::cluster` and
//! `Laca::bdd_with_stats_in` read Steps 1–3 straight out of the diffusion
//! workspace, and must answer exactly what the map-based composition
//! (`common::old_bdd` + a full-sort extraction) answers — the same `ρ'`
//! bits, the same stats (including the `‖φ'‖₁` bits), the same clusters —
//! for σ = 0.1 (the default) and σ = 1 (GreedyDiffuse, the Table VI
//! ablation), with and without SNAS, across ε.

mod common;

use common::{bits, build, old_bdd, old_top_k, pubmed_small_spec, small_spec};
use laca_core::extract::{top_k_cluster, top_k_cluster_from_pairs};
use laca_core::tnam::TnamConfig;
use laca_core::{CoreError, Laca, LacaParams, MetricFn, Tnam};
use laca_diffusion::{DiffusionWorkspace, SparseVec};
use laca_graph::{AttributeMatrix, CsrGraph, NodeId};
use proptest::prelude::*;

const SIGMAS: [f64; 2] = [0.1, 1.0];
const EPSILONS: [f64; 3] = [1e-3, 1e-4, 1e-5];

/// New path against the old composition for one engine and seed, at the
/// ground-truth size and at the boundary sizes.
fn assert_same_answers(engine: &Laca<'_>, seed: NodeId, truth_len: usize, what: &str) {
    let (mut ws, mut old_ws) = (DiffusionWorkspace::new(), DiffusionWorkspace::new());
    let (rho, stats) = engine.bdd_with_stats_in(seed, &mut ws).expect("new path");
    let (old_rho, old_stats) = old_bdd(engine, seed, &mut old_ws).expect("old path");
    assert_eq!(bits(&rho), bits(&old_rho), "{what} seed {seed}: rho bits");
    assert_eq!(stats, old_stats, "{what} seed {seed}: stats");
    assert_eq!(stats.phi_l1.to_bits(), old_stats.phi_l1.to_bits(), "{what} seed {seed}: phi_l1");
    let supp = rho.support_size();
    for size in [0, 1, truth_len, supp.saturating_sub(1), supp, supp + 5] {
        let cluster = engine.cluster(seed, size).expect("cluster");
        assert_eq!(cluster, top_k_cluster(&rho, seed, size), "{what} seed {seed} size {size}");
        assert_eq!(cluster, old_top_k(&old_rho, seed, size), "{what} seed {seed} size {size}");
    }
}

fn sweep(spec: &laca_graph::gen::AttributedGraphSpec, seeds: &[NodeId]) {
    let (ds, tnam) = build(spec);
    for sigma in SIGMAS {
        for use_snas in [true, false] {
            for eps in EPSILONS {
                let mut params = LacaParams::new(eps).with_sigma(sigma);
                if !use_snas {
                    params = params.without_snas();
                }
                let engine = Laca::new(&ds.graph, Some(&tnam), params).expect("engine");
                let what = format!("sigma={sigma} snas={use_snas} eps={eps}");
                for &seed in seeds {
                    assert_same_answers(&engine, seed, ds.ground_truth(seed).len(), &what);
                }
            }
        }
    }
}

#[test]
fn matches_the_map_pipeline_on_the_200_node_spec() {
    sweep(&small_spec(), &[0, 3, 17, 64, 101, 150, 199]);
}

#[test]
fn matches_the_map_pipeline_on_a_small_pubmed_like_spec() {
    sweep(&pubmed_small_spec(), &[0, 7, 311, 998, 1500, 1999]);
}

#[test]
fn a_degenerate_seed_answers_the_seed_alone() {
    // ‖φ'‖₁ > 0 but no node reaches Step 3's threshold ε·‖φ'‖₁: Step 3
    // runs zero iterations and ρ' is empty. On the 2,000-node pubmed-like
    // graph at ε = 1e-3 about one seed in nine is degenerate.
    let (ds, tnam) = build(&pubmed_small_spec());
    let engine = Laca::new(&ds.graph, Some(&tnam), LacaParams::new(1e-3)).expect("engine");
    let mut ws = DiffusionWorkspace::new();
    let degenerate: Vec<NodeId> = (0..ds.graph.n() as NodeId)
        .filter(|&s| {
            let (_, st) = engine.bdd_with_stats_in(s, &mut ws).expect("query");
            st.phi_l1 > 0.0 && st.bdd.iterations == 0
        })
        .take(3)
        .collect();
    assert!(!degenerate.is_empty(), "no degenerate seed on the pubmed-like graph");
    for seed in degenerate {
        let (rho, _) = engine.bdd_with_stats_in(seed, &mut ws).expect("query");
        assert!(rho.is_empty());
        assert_eq!(engine.cluster(seed, 50).expect("cluster"), vec![seed]);
        assert_same_answers(&engine, seed, 50, "degenerate");
    }
}

#[test]
fn an_isolated_seed_answers_the_seed_alone() {
    // Two triangles joined by a bridge, plus node 6 with no edges.
    let graph = CsrGraph::from_edges(7, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
        .expect("graph");
    let rows: Vec<Vec<(u32, f64)>> = (0..7).map(|i| vec![(i % 3, 1.0), (3 + i % 2, 0.5)]).collect();
    let attrs = AttributeMatrix::from_rows(5, &rows).expect("attributes");
    let tnam = Tnam::build(&attrs, &TnamConfig::new(4, MetricFn::Cosine)).expect("tnam");
    for sigma in SIGMAS {
        for params in [LacaParams::new(1e-4), LacaParams::new(1e-4).without_snas()] {
            let engine = Laca::new(&graph, Some(&tnam), params.with_sigma(sigma)).expect("engine");
            assert_eq!(engine.cluster(6, 3).expect("cluster"), vec![6]);
            assert_same_answers(&engine, 6, 3, "isolated");
            assert_same_answers(&engine, 0, 3, "bridged");
        }
    }
}

#[test]
fn an_out_of_range_seed_is_a_typed_error() {
    let (ds, tnam) = build(&small_spec());
    let engine = Laca::new(&ds.graph, Some(&tnam), LacaParams::new(1e-4)).expect("engine");
    let n = ds.graph.n() as NodeId;
    let mut ws = DiffusionWorkspace::new();
    for seed in [n, n + 1, NodeId::MAX] {
        assert!(matches!(engine.cluster(seed, 10), Err(CoreError::BadParameter(_))));
        assert!(matches!(engine.bdd_with_stats_in(seed, &mut ws), Err(CoreError::BadParameter(_))));
    }
    // The failed queries left the workspace usable.
    let (rho, _) = engine.bdd_with_stats_in(3, &mut ws).expect("query");
    assert_eq!(engine.cluster(3, 20).expect("cluster"), top_k_cluster(&rho, 3, 20));
}

/// Unique-id pairs whose scores take only a few distinct values.
fn tied_pairs() -> impl Strategy<Value = Vec<(NodeId, f64)>> {
    proptest::collection::vec((0u32..80, 0u32..4), 0..60).prop_map(|raw| {
        let mut seen = std::collections::HashSet::new();
        raw.into_iter()
            .filter(|&(v, _)| seen.insert(v))
            .map(|(v, level)| (v, 0.25 + f64::from(level) * 0.5))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn select_then_sort_equals_a_full_sort_then_take(
        pairs in tied_pairs(),
        seed in 0u32..90,
        size in 0usize..70,
    ) {
        let want = old_top_k(&SparseVec::from_pairs(pairs.iter().copied()), seed, size);
        let mut scratch = pairs.clone();
        prop_assert_eq!(top_k_cluster_from_pairs(&mut scratch, seed, size), want.clone());
        // Any input order gives the same answer.
        let mut reversed: Vec<_> = pairs.into_iter().rev().collect();
        prop_assert_eq!(top_k_cluster_from_pairs(&mut reversed, seed, size), want);
    }
}
