//! Shared fixtures for the query-path suites: the test datasets, and
//! Algo. 4 rebuilt from the public `*_diffuse_in` + `SparseVec` calls the
//! way `Laca` composed it before it read results from the workspace
//! (every diffusion converted to maps, full sorts for Step 2 and the
//! extraction). The new path must match it bit for bit. At `σ = 1` the
//! composition calls GreedyDiffuse itself, so the same comparison pins
//! the "w/o AdaptiveDiffuse" ablation to Algo. 1's answers.

#![allow(dead_code)]

use laca_core::laca::LacaQueryStats;
use laca_core::tnam::TnamConfig;
use laca_core::{CoreError, Laca, MetricFn, Tnam};
use laca_diffusion::{
    adaptive_diffuse_in, greedy_diffuse_in, DiffusionParams, DiffusionResult, DiffusionWorkspace,
    SparseVec,
};
use laca_graph::gen::{AttributeSpec, AttributedGraphSpec};
use laca_graph::{AttributedDataset, NodeId};

/// The 200-node, 4-cluster spec of `laca.rs`'s unit tests.
pub fn small_spec() -> AttributedGraphSpec {
    AttributedGraphSpec {
        n: 200,
        n_clusters: 4,
        avg_degree: 8.0,
        p_intra: 0.85,
        missing_intra: 0.05,
        degree_exponent: 2.5,
        cluster_size_skew: 0.2,
        attributes: Some(AttributeSpec {
            dim: 64,
            topic_words: 12,
            tokens_per_node: 25,
            attr_noise: 0.2,
        }),
        seed: 77,
    }
}

/// The registry's pubmed-like spec (sparse, avg degree 4.5, noisy
/// attributes) cut down to 2,000 nodes.
pub fn pubmed_small_spec() -> AttributedGraphSpec {
    AttributedGraphSpec { n: 2000, ..laca_graph::datasets::pubmed_like() }
}

/// A dataset with its k=16 cosine TNAM.
pub fn build(spec: &AttributedGraphSpec) -> (AttributedDataset, Tnam) {
    let ds = spec.generate("query-path").expect("dataset");
    let tnam = Tnam::build(&ds.attributes, &TnamConfig::new(16, MetricFn::Cosine)).expect("tnam");
    (ds, tnam)
}

/// One diffusion through the `SparseVec`-returning entry point:
/// GreedyDiffuse (Algo. 1) at `σ = 1`, AdaptiveDiffuse (Algo. 2) below.
fn diffuse(
    engine: &Laca<'_>,
    f: &SparseVec,
    epsilon: f64,
    ws: &mut DiffusionWorkspace,
) -> Result<DiffusionResult, CoreError> {
    let p = engine.params();
    let dp = DiffusionParams { alpha: p.alpha, epsilon, sigma: p.sigma, record_residuals: false };
    let g = engine.graph();
    Ok(if p.sigma >= 1.0 {
        greedy_diffuse_in(g, f, &dp, ws)?
    } else {
        adaptive_diffuse_in(g, f, &dp, ws)?
    })
}

/// `Laca::bdd_with_stats_in` as composed before the workspace read-out.
pub fn old_bdd(
    engine: &Laca<'_>,
    seed: NodeId,
    ws: &mut DiffusionWorkspace,
) -> Result<(SparseVec, LacaQueryStats), CoreError> {
    let graph = engine.graph();
    if seed as usize >= graph.n() {
        return Err(CoreError::BadParameter("seed node out of range"));
    }
    let params = engine.params();
    let rwr = diffuse(engine, &SparseVec::unit(seed), params.epsilon, ws)?;
    let pairs = rwr.reserve.to_sorted_pairs();
    let mut phi = SparseVec::new();
    match engine.tnam().filter(|_| params.use_snas) {
        Some(tnam) => {
            let mut psi = tnam.new_accumulator();
            for &(i, v) in &pairs {
                tnam.accumulate_into(&mut psi, i as usize, v);
            }
            for &(i, _) in &pairs {
                phi.set(i, tnam.dot_row(&psi, i as usize).max(0.0) * graph.weighted_degree(i));
            }
        }
        None => {
            for &(i, v) in &pairs {
                phi.set(i, v * graph.weighted_degree(i));
            }
        }
    }
    let phi_l1 = phi.l1_norm();
    let mut stats = LacaQueryStats {
        rwr: rwr.stats,
        bdd: Default::default(),
        rwr_support: rwr.reserve.support_size(),
        phi_l1,
    };
    let mut rho = SparseVec::new();
    if phi_l1 == 0.0 {
        return Ok((rho, stats));
    }
    let bdd = diffuse(engine, &phi, params.epsilon * phi_l1, ws)?;
    stats.bdd = bdd.stats;
    for (i, v) in bdd.reserve.to_sorted_pairs() {
        rho.set(i, v / graph.weighted_degree(i));
    }
    Ok((rho, stats))
}

/// `top_k_cluster` as it was before the select helper: a full sort of the
/// support, then the first `size`.
pub fn old_top_k(score: &SparseVec, seed: NodeId, size: usize) -> Vec<NodeId> {
    if size == 0 {
        return vec![seed];
    }
    let mut ranked: Vec<(NodeId, f64)> = score.iter().collect();
    ranked.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    let mut cluster = Vec::with_capacity(size);
    let mut has_seed = false;
    for &(v, _) in ranked.iter().take(size) {
        if v == seed {
            has_seed = true;
        }
        cluster.push(v);
    }
    if !has_seed {
        if cluster.len() == size {
            cluster.pop();
        }
        cluster.insert(0, seed);
    }
    cluster
}

/// `(node, bit pattern)` pairs in node order: equality is bit-identity.
pub fn bits(v: &SparseVec) -> Vec<(NodeId, u64)> {
    let mut p: Vec<(NodeId, u64)> = v.iter().map(|(i, x)| (i, x.to_bits())).collect();
    p.sort_unstable();
    p
}
