//! The LACA algorithm (Algo. 4): three-step online BDD estimation.
//!
//! 1. **Estimate RWR** — `π' = AdaptiveDiffuse(P, α, σ, ε, 1⁽ˢ⁾)`;
//! 2. **RWR–SNAS vector** — `ψ = Σ_{i∈supp(π')} π'_i · z⁽ⁱ⁾` (Eq. 12), then
//!    `φ'_i = (ψ · z⁽ⁱ⁾) · d(v_i)` on `supp(π')` (Eq. 13);
//! 3. **Estimate BDD** — `ρ' = AdaptiveDiffuse(P, α, σ, ε·‖φ'‖₁, φ')`,
//!    then divide each entry by its degree.
//!
//! The predicted local cluster is the top-`|Cs|` nodes of `ρ'`
//! (Section II-D). Total time `O(k / ((1−α)·ε))` — Theorem V.4 gives the
//! approximation bound, Lemma IV.3 the output-volume bound.
//!
//! # Data path
//!
//! Both diffusions run on one [`DiffusionWorkspace`] through the solvers'
//! `*_run_in` loops, which leave `q` and `r` in the workspace. Step 2
//! reads `π'` back with [`DiffusionWorkspace::reserve_into`] and sorts it
//! by node id; Step 3's reserve comes back the same way and is rescaled
//! in place to `(node, q/d)` pairs. [`Laca::cluster`] selects the top
//! `|Cs|` from those pairs (select, then sort only the kept prefix), so a
//! warm query allocates only the unit seed vector, Step 2's `ψ`
//! accumulator and `φ'` map, and the returned cluster.
//! [`Laca::bdd_with_stats_in`] builds its `ρ'` [`SparseVec`] once,
//! pre-sized, from the same pairs. `φ'` stays a [`SparseVec`] built by
//! ascending `set`s: `‖φ'‖₁` is summed in its map order, so its layout is
//! part of the answer's bits.

use crate::extract::top_k_cluster_from_pairs;
use crate::{CoreError, Tnam};
use laca_diffusion::workspace::with_thread_workspace;
use laca_diffusion::{
    adaptive_run_in, greedy_run_in, nongreedy_run_in, DiffusionParams, DiffusionStats,
    DiffusionWorkspace, SparseVec,
};
use laca_graph::{CsrGraph, NodeId};
use std::sync::Arc;

/// Which diffusion solver Algo. 4 invokes (the "w/o AdaptiveDiffuse"
/// ablation of Table VI swaps in GreedyDiffuse).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiffusionBackend {
    /// Algo. 2 (the paper's choice).
    #[default]
    Adaptive,
    /// Algo. 1 (ablation).
    Greedy,
    /// Pure Eq. 17 iteration (reference; no locality bound).
    NonGreedy,
}

/// LACA query parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LacaParams {
    /// RWR continue probability `α ∈ (0, 1)`; the paper's sweeps favor 0.8–0.9.
    pub alpha: f64,
    /// Diffusion threshold `ε`; output volume and cost are `O(1/ε)`.
    pub epsilon: f64,
    /// Greedy/non-greedy balance `σ ∈ [0, 1]` of AdaptiveDiffuse.
    pub sigma: f64,
    /// Diffusion solver selection.
    pub backend: DiffusionBackend,
    /// `false` disables attribute information entirely — the
    /// "LACA (w/o SNAS)" configuration, where the BDD degenerates to the
    /// CoSimRank-style topology-only measure (Section II-C remark).
    pub use_snas: bool,
}

impl LacaParams {
    /// Paper-typical defaults: `α = 0.8`, `σ = 0.1`.
    pub fn new(epsilon: f64) -> Self {
        LacaParams {
            alpha: 0.8,
            epsilon,
            sigma: 0.1,
            backend: DiffusionBackend::Adaptive,
            use_snas: true,
        }
    }

    /// Sets `α`.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets `σ`.
    pub fn with_sigma(mut self, sigma: f64) -> Self {
        self.sigma = sigma;
        self
    }

    /// Selects the diffusion backend.
    pub fn with_backend(mut self, backend: DiffusionBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Disables the SNAS (topology-only BDD).
    pub fn without_snas(mut self) -> Self {
        self.use_snas = false;
        self
    }

    /// Stable digest of every field that affects query results. Float
    /// params are hashed by bit pattern, so any observable change — even
    /// in the last ulp — changes the fingerprint. This is the *identity*
    /// of a parameterization: serving layers key result caches and
    /// routing tables on it (`laca-service` pairs it with a dataset name
    /// to form a route key), guaranteeing a params change can never serve
    /// stale answers.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = rustc_hash::FxHasher::default();
        self.alpha.to_bits().hash(&mut h);
        self.epsilon.to_bits().hash(&mut h);
        self.sigma.to_bits().hash(&mut h);
        let backend: u8 = match self.backend {
            DiffusionBackend::Adaptive => 0,
            DiffusionBackend::Greedy => 1,
            DiffusionBackend::NonGreedy => 2,
        };
        backend.hash(&mut h);
        self.use_snas.hash(&mut h);
        h.finish()
    }
}

/// Telemetry from one LACA query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LacaQueryStats {
    /// Stats of the Step-1 RWR diffusion.
    pub rwr: DiffusionStats,
    /// Stats of the Step-3 BDD diffusion.
    pub bdd: DiffusionStats,
    /// `|supp(π')|`.
    pub rwr_support: usize,
    /// `‖φ'‖₁` fed to Step 3.
    pub phi_l1: f64,
}

/// Either a borrowed or an `Arc`-shared handle to an immutable artifact.
///
/// [`Laca`] historically borrowed its graph and TNAM from the caller
/// (`Laca<'g>`), which is zero-cost for single-threaded loops but cannot
/// cross thread boundaries. The serving layer (`laca-service`) needs one
/// immutable index shared by many worker threads, so each handle can also
/// be an `Arc` — `Laca<'static>` built from Arcs is `Send + Sync`
/// (statically asserted below) and freely clonable across a pool.
#[derive(Debug, Clone)]
enum SharedRef<'g, T> {
    Borrowed(&'g T),
    Owned(Arc<T>),
}

impl<T> SharedRef<'_, T> {
    #[inline]
    fn get(&self) -> &T {
        match self {
            SharedRef::Borrowed(t) => t,
            SharedRef::Owned(t) => t,
        }
    }
}

/// A LACA instance bound to a graph and (optionally) a prebuilt TNAM.
///
/// The TNAM is the reusable preprocessing artifact: build it once per
/// dataset ([`Tnam::build`]), then answer any number of seed queries.
///
/// Construction is either borrowing ([`Laca::new`] — the lifetime ties
/// the engine to the caller's graph) or shared ([`Laca::new_shared`] —
/// `Arc`-backed, `'static`, `Send + Sync`, for cross-thread serving).
#[derive(Debug, Clone)]
pub struct Laca<'g> {
    graph: SharedRef<'g, CsrGraph>,
    tnam: Option<SharedRef<'g, Tnam>>,
    params: LacaParams,
}

fn validate_index(
    graph: &CsrGraph,
    tnam: Option<&Tnam>,
    params: &LacaParams,
) -> Result<(), CoreError> {
    if params.use_snas {
        match tnam {
            None => return Err(CoreError::NoAttributes),
            Some(t) if t.n() != graph.n() => {
                return Err(CoreError::BadParameter("TNAM size does not match graph"))
            }
            _ => {}
        }
    }
    Ok(())
}

impl<'g> Laca<'g> {
    /// Creates a query engine borrowing the caller's graph/TNAM.
    /// `tnam = None` is only valid together with `params.use_snas = false`.
    pub fn new(
        graph: &'g CsrGraph,
        tnam: Option<&'g Tnam>,
        params: LacaParams,
    ) -> Result<Self, CoreError> {
        validate_index(graph, tnam, &params)?;
        Ok(Laca { graph: SharedRef::Borrowed(graph), tnam: tnam.map(SharedRef::Borrowed), params })
    }

    /// Creates a query engine co-owning its graph/TNAM through `Arc`s.
    ///
    /// The result is `Laca<'static>`: it can move into worker threads and
    /// be queried concurrently (all query paths take `&self`). Same
    /// validation rules as [`Laca::new`].
    pub fn new_shared(
        graph: Arc<CsrGraph>,
        tnam: Option<Arc<Tnam>>,
        params: LacaParams,
    ) -> Result<Laca<'static>, CoreError> {
        validate_index(&graph, tnam.as_deref(), &params)?;
        Ok(Laca { graph: SharedRef::Owned(graph), tnam: tnam.map(SharedRef::Owned), params })
    }

    /// The graph this engine queries.
    pub fn graph(&self) -> &CsrGraph {
        self.graph.get()
    }

    /// The TNAM in use, if any.
    pub fn tnam(&self) -> Option<&Tnam> {
        self.tnam.as_ref().map(SharedRef::get)
    }

    /// The parameters in use.
    pub fn params(&self) -> &LacaParams {
        &self.params
    }

    /// One diffusion of Algo. 4 with the configured backend. `q` and `r`
    /// stay in `ws`; only the stats come back.
    fn diffuse(
        &self,
        f: &SparseVec,
        epsilon: f64,
        ws: &mut DiffusionWorkspace,
    ) -> Result<DiffusionStats, CoreError> {
        let dp = DiffusionParams {
            alpha: self.params.alpha,
            epsilon,
            sigma: self.params.sigma,
            record_residuals: false,
        };
        let graph = self.graph.get();
        let stats = match self.params.backend {
            DiffusionBackend::Adaptive => adaptive_run_in(graph, f, &dp, ws)?,
            DiffusionBackend::Greedy => greedy_run_in(graph, f, &dp, ws)?,
            DiffusionBackend::NonGreedy => nongreedy_run_in(graph, f, &dp, ws)?,
        };
        Ok(stats)
    }

    /// Steps 1–3 of Algo. 4 on `ws`. Returns the query's stats and `ρ'` as
    /// `(node, q/d)` pairs in the workspace's reserve buffer (first-touch
    /// order; empty when `‖φ'‖₁ = 0`). Neither `π'` nor `ρ'` becomes a
    /// map; `φ'` stays a [`SparseVec`] because `‖φ'‖₁` and Step 3's seeding
    /// run in its map order.
    fn run_in<'w>(
        &self,
        seed: NodeId,
        ws: &'w mut DiffusionWorkspace,
    ) -> Result<(LacaQueryStats, RhoPairs<'w>), CoreError> {
        let graph = self.graph.get();
        if seed as usize >= graph.n() {
            return Err(CoreError::BadParameter("seed node out of range"));
        }

        // Step 1: π' = AdaptiveDiffuse(1⁽ˢ⁾).
        let rwr = self.diffuse(&SparseVec::unit(seed), self.params.epsilon, ws)?;
        let pi = ws.reserve_into();
        let mut stats = LacaQueryStats { rwr, rwr_support: pi.len(), ..Default::default() };

        // Step 2: φ'. Iteration runs over ascending node ids, so the
        // Step-2 float sequence (and with it `‖φ'‖₁`) does not depend on
        // the order Step 1 first touched the nodes in.
        pi.sort_unstable_by_key(|&(i, _)| i);
        let phi = step2_phi(graph, self.tnam_for_query(), pi);
        let phi_l1 = phi.l1_norm();
        stats.phi_l1 = phi_l1;
        if phi_l1 == 0.0 {
            return Ok((stats, &mut []));
        }

        // Step 3: diffuse φ' with threshold ε·‖φ'‖₁, then divide by degree.
        // An entry that underflows to zero leaves the support, exactly as
        // `SparseVec::set` would drop it.
        stats.bdd = self.diffuse(&phi, self.params.epsilon * phi_l1, ws)?;
        let rho = ws.reserve_into();
        rho.retain_mut(|(i, q)| {
            *q /= graph.weighted_degree(*i);
            *q != 0.0
        });
        Ok((stats, rho))
    }

    /// Approximate BDD vector `ρ'` for a seed node, with telemetry.
    ///
    /// Both diffusions (Steps 1 and 3) run on the calling thread's cached
    /// [`DiffusionWorkspace`], so repeated queries — the evaluation
    /// harness's per-seed loops in particular — do no per-query scratch
    /// allocation.
    pub fn bdd_with_stats(&self, seed: NodeId) -> Result<(SparseVec, LacaQueryStats), CoreError> {
        with_thread_workspace(|ws| self.bdd_with_stats_in(seed, ws))
    }

    /// [`Laca::bdd_with_stats`] on a caller-managed workspace. `ρ'` is
    /// built as a [`SparseVec`] once, pre-sized, from the workspace.
    pub fn bdd_with_stats_in(
        &self,
        seed: NodeId,
        ws: &mut DiffusionWorkspace,
    ) -> Result<(SparseVec, LacaQueryStats), CoreError> {
        let (stats, pairs) = self.run_in(seed, ws)?;
        let mut rho = SparseVec::with_capacity(pairs.len());
        for &(i, v) in pairs.iter() {
            rho.set(i, v);
        }
        Ok((rho, stats))
    }

    /// The TNAM Step 2 should use: `Some` iff SNAS is enabled.
    fn tnam_for_query(&self) -> Option<&Tnam> {
        if self.params.use_snas {
            self.tnam()
        } else {
            None
        }
    }

    /// Approximate BDD vector `ρ'` for a seed node.
    ///
    /// # Example
    ///
    /// ```
    /// use laca_core::{Laca, LacaParams, MetricFn, Tnam, TnamConfig};
    /// use laca_graph::{AttributeMatrix, CsrGraph};
    ///
    /// // Two triangles joined by a bridge.
    /// let graph = CsrGraph::from_edges(6, &[
    ///     (0, 1), (1, 2), (0, 2), // community A
    ///     (3, 4), (4, 5), (3, 5), // community B
    ///     (2, 3),                 // bridge
    /// ]).unwrap();
    /// let rows: Vec<Vec<(u32, f64)>> = (0..6)
    ///     .map(|i| {
    ///         let base: u32 = if i < 3 { 0 } else { 2 };
    ///         vec![(base, 1.0), (base + 1, 0.5)]
    ///     })
    ///     .collect();
    /// let attrs = AttributeMatrix::from_rows(4, &rows).unwrap();
    /// let tnam = Tnam::build(&attrs, &TnamConfig::new(4, MetricFn::Cosine)).unwrap();
    ///
    /// // Online: one diffusion query (Algo. 4) per seed.
    /// let engine = Laca::new(&graph, Some(&tnam), LacaParams::new(1e-4)).unwrap();
    /// let rho = engine.bdd(0).unwrap();
    /// // The seed's own community carries more BDD mass than the other one.
    /// assert!(rho.get(1) > rho.get(5));
    /// ```
    pub fn bdd(&self, seed: NodeId) -> Result<SparseVec, CoreError> {
        Ok(self.bdd_with_stats(seed)?.0)
    }

    /// Predicted local cluster: the `size` nodes with the largest BDD
    /// values (the seed is always included) — the same answer as
    /// [`crate::extract::top_k_cluster`] over [`Laca::bdd`], selected
    /// straight from the workspace without building `ρ'` as a map.
    pub fn cluster(&self, seed: NodeId, size: usize) -> Result<Vec<NodeId>, CoreError> {
        with_thread_workspace(|ws| {
            let (_, rho) = self.run_in(seed, ws)?;
            Ok(top_k_cluster_from_pairs(rho, seed, size))
        })
    }
}

/// `ρ'` as `(node, q/d)` pairs, borrowed from a workspace's reserve buffer.
type RhoPairs<'w> = &'w mut [(NodeId, f64)];

/// Step 2 (Eq. 12/13) over a sorted `π'` support: `ψ = Σ π'_i · z⁽ⁱ⁾`,
/// then `φ'_i = max(ψ·z⁽ⁱ⁾, 0) · d(v_i)`; without a TNAM the
/// identity-SNAS degenerate form `φ'_i = π'_i · d(v_i)`.
///
/// `pairs` arrive in ascending node order, which fixes the float op
/// sequence and the `φ'` map layout (and with it the `l1_norm` summation
/// order).
fn step2_phi(graph: &CsrGraph, tnam: Option<&Tnam>, pairs: &[(NodeId, f64)]) -> SparseVec {
    match tnam {
        Some(tnam) => {
            let mut psi = tnam.new_accumulator();
            for &(i, v) in pairs {
                tnam.accumulate_into(&mut psi, i as usize, v);
            }
            let mut phi = SparseVec::new();
            for &(i, _) in pairs {
                // Random-feature noise can push ψ·z⁽ⁱ⁾ slightly below
                // zero; clamp so Step 3's input stays a valid
                // non-negative diffusion vector.
                let val = tnam.dot_row(&psi, i as usize).max(0.0) * graph.weighted_degree(i);
                phi.set(i, val);
            }
            phi
        }
        None => {
            // w/o SNAS: s(v_i, v_j) = [i = j], so φ'_i = π'_i · d(v_i).
            let mut phi = SparseVec::new();
            for &(i, v) in pairs {
                phi.set(i, v * graph.weighted_degree(i));
            }
            phi
        }
    }
}

// An Arc-built engine must be shareable across a worker pool. If a future
// change introduces interior mutability (Cell/RefCell/raw pointers) into
// the graph, the TNAM or the engine itself, this stops compiling instead
// of surfacing as a data race at runtime.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Laca<'static>>();
    assert_send_sync::<LacaParams>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_bdd_with_tnam;
    use crate::tnam::TnamConfig;
    use crate::MetricFn;
    use laca_graph::gen::{AttributeSpec, AttributedGraphSpec};
    use laca_graph::AttributedDataset;

    fn dataset() -> AttributedDataset {
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
        .generate("laca-test")
        .unwrap()
    }

    #[test]
    fn bdd_satisfies_theorem_v4_bound() {
        // When Eq. 10 holds (s := z·z from the TNAM itself), Theorem V.4:
        // 0 ≤ ρ_t − ρ'_t ≤ (1 + Σ_i d_i · max_j s(i,j)) · ε.
        let ds = dataset();
        let tnam = Tnam::build(&ds.attributes, &TnamConfig::new(16, MetricFn::Cosine)).unwrap();
        let eps = 1e-4;
        let params = LacaParams::new(eps);
        let engine = Laca::new(&ds.graph, Some(&tnam), params).unwrap();
        let seed = 3;
        let rho_approx = engine.bdd(seed).unwrap();
        let rho_exact = exact_bdd_with_tnam(&ds.graph, &tnam, seed, 0.8, 1e-12);
        // Slack term of the bound.
        let mut slack = 1.0;
        for i in 0..ds.graph.n() {
            let max_s = (0..ds.graph.n()).map(|j| tnam.s_approx(i, j)).fold(0.0f64, f64::max);
            slack += ds.graph.weighted_degree(i as u32) * max_s;
        }
        let bound = slack * eps;
        for t in 0..ds.graph.n() as NodeId {
            let gap = rho_exact[t as usize] - rho_approx.get(t);
            assert!(gap >= -1e-8, "t={t}: ρ'_t exceeds ρ_t by {}", -gap);
            assert!(gap <= bound + 1e-8, "t={t}: gap {gap} > bound {bound}");
        }
    }

    #[test]
    fn cluster_recovers_planted_community() {
        let ds = dataset();
        let tnam = Tnam::build(&ds.attributes, &TnamConfig::new(16, MetricFn::Cosine)).unwrap();
        let engine = Laca::new(&ds.graph, Some(&tnam), LacaParams::new(1e-5)).unwrap();
        let seed = 0;
        let truth = ds.ground_truth(seed);
        let cluster = engine.cluster(seed, truth.len()).unwrap();
        let truth_set: std::collections::HashSet<_> = truth.iter().copied().collect();
        let hits = cluster.iter().filter(|v| truth_set.contains(v)).count();
        let precision = hits as f64 / cluster.len() as f64;
        assert!(precision > 0.7, "precision {precision}");
        assert!(cluster.contains(&seed));
    }

    #[test]
    fn exp_cosine_variant_also_recovers_community() {
        let ds = dataset();
        let tnam =
            Tnam::build(&ds.attributes, &TnamConfig::new(16, MetricFn::ExpCosine { delta: 1.0 }))
                .unwrap();
        let engine = Laca::new(&ds.graph, Some(&tnam), LacaParams::new(1e-5)).unwrap();
        let seed = 10;
        let truth = ds.ground_truth(seed);
        let cluster = engine.cluster(seed, truth.len()).unwrap();
        let truth_set: std::collections::HashSet<_> = truth.iter().copied().collect();
        let precision =
            cluster.iter().filter(|v| truth_set.contains(v)).count() as f64 / cluster.len() as f64;
        assert!(precision > 0.6, "precision {precision}");
    }

    #[test]
    fn without_snas_matches_identity_snas_semantics() {
        let ds = dataset();
        let engine = Laca::new(&ds.graph, None, LacaParams::new(1e-5).without_snas()).unwrap();
        let rho = engine.bdd(5).unwrap();
        assert!(!rho.is_empty());
        // Seed should be among its own top nodes.
        let ranked = rho.to_ranked_pairs();
        let pos = ranked.iter().position(|&(v, _)| v == 5).unwrap();
        assert!(pos < 20, "seed ranked at {pos}");
    }

    #[test]
    fn support_is_bounded_by_lemma_iv3() {
        let ds = dataset();
        let tnam = Tnam::build(&ds.attributes, &TnamConfig::new(8, MetricFn::Cosine)).unwrap();
        let eps = 1e-3;
        let engine = Laca::new(&ds.graph, Some(&tnam), LacaParams::new(eps)).unwrap();
        let (rho, stats) = engine.bdd_with_stats(1).unwrap();
        // Step 3 ran with threshold ε·‖φ'‖₁ on input of mass ‖φ'‖₁, so its
        // support is ≤ 2/( (1−α)·ε ) regardless of ‖φ'‖₁.
        let cap = 2.0 / ((1.0 - 0.8) * eps);
        assert!((rho.support_size() as f64) <= cap, "support {}", rho.support_size());
        assert!(stats.rwr_support > 0);
        assert!(stats.phi_l1 > 0.0);
    }

    #[test]
    fn greedy_backend_is_usable_but_not_better() {
        let ds = dataset();
        let tnam = Tnam::build(&ds.attributes, &TnamConfig::new(8, MetricFn::Cosine)).unwrap();
        let adaptive = Laca::new(&ds.graph, Some(&tnam), LacaParams::new(1e-5)).unwrap();
        let greedy = Laca::new(
            &ds.graph,
            Some(&tnam),
            LacaParams::new(1e-5).with_backend(DiffusionBackend::Greedy),
        )
        .unwrap();
        let (_, sa) = adaptive.bdd_with_stats(2).unwrap();
        let (_, sg) = greedy.bdd_with_stats(2).unwrap();
        assert!(sa.rwr.iterations <= sg.rwr.iterations);
    }

    #[test]
    fn shared_engine_matches_borrowed_engine_across_threads() {
        let ds = dataset();
        let tnam = Tnam::build(&ds.attributes, &TnamConfig::new(16, MetricFn::Cosine)).unwrap();
        let params = LacaParams::new(1e-4);
        let borrowed = Laca::new(&ds.graph, Some(&tnam), params.clone()).unwrap();
        let shared =
            Laca::new_shared(Arc::new(ds.graph.clone()), Some(Arc::new(tnam.clone())), params)
                .unwrap();
        let expected: Vec<_> = (0..4u32)
            .map(|s| {
                let (rho, stats) = borrowed.bdd_with_stats(s).unwrap();
                (rho.to_sorted_pairs(), stats.bdd.push_operations)
            })
            .collect();
        let handles: Vec<_> = (0..4u32)
            .map(|s| {
                let engine = shared.clone();
                std::thread::spawn(move || {
                    let (rho, stats) = engine.bdd_with_stats(s).unwrap();
                    (rho.to_sorted_pairs(), stats.bdd.push_operations)
                })
            })
            .collect();
        for (s, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), expected[s], "seed {s} diverged across threads");
        }
    }

    #[test]
    fn shared_construction_validates_like_borrowed() {
        let ds = dataset();
        let graph = Arc::new(ds.graph.clone());
        assert!(Laca::new_shared(Arc::clone(&graph), None, LacaParams::new(1e-4)).is_err());
        assert!(Laca::new_shared(graph, None, LacaParams::new(1e-4).without_snas()).is_ok());
    }

    #[test]
    fn rejects_inconsistent_construction() {
        let ds = dataset();
        // use_snas without a TNAM.
        assert!(Laca::new(&ds.graph, None, LacaParams::new(1e-4)).is_err());
        // Seed out of range.
        let tnam = Tnam::build(&ds.attributes, &TnamConfig::new(8, MetricFn::Cosine)).unwrap();
        let engine = Laca::new(&ds.graph, Some(&tnam), LacaParams::new(1e-4)).unwrap();
        assert!(engine.bdd(10_000).is_err());
    }
}
