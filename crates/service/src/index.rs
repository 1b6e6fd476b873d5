//! The immutable, shareable preprocessing artifact behind a service.

use laca_core::tnam::TnamConfig;
use laca_core::{CoreError, Laca, LacaParams, Tnam};
use laca_graph::{AttributedDataset, CsrGraph};
use std::sync::Arc;

/// Everything a worker needs to answer seed queries, behind `Arc`s:
/// the CSR graph, the prebuilt TNAM (when the params use the SNAS), and
/// the query parameters. Build once, clone freely — clones share the
/// underlying graph/TNAM, so handing an index to a [`crate::QueryService`]
/// or to N worker threads copies two pointers, not the data.
///
/// The index also carries an **identity fingerprint** (stable across
/// clones) combining [`LacaParams::fingerprint`] with the TNAM's
/// [`laca_core::tnam::TnamConfig::fingerprint`]. It keys the service's
/// result cache and the router's [`crate::RouteKey`]: two indices over
/// the same data with different `ε`/`α`/`σ` — or the same params
/// over TNAMs built with different `k`/metric/seed — produce different
/// keys, so neither a params change nor a TNAM rebuild can ever serve
/// stale or mixed answers.
#[derive(Debug, Clone)]
pub struct ClusterIndex {
    graph: Arc<CsrGraph>,
    tnam: Option<Arc<Tnam>>,
    params: LacaParams,
    fingerprint: u64,
    /// Dataset label this index was built over (`""` when unknown) —
    /// together with the identity fingerprint it forms the index's
    /// [`RouteKey`](crate::RouteKey).
    dataset: Arc<str>,
}

impl ClusterIndex {
    /// Assembles an index from already-shared parts, with the same
    /// validation as [`Laca::new`] (SNAS params require a TNAM whose size
    /// matches the graph).
    ///
    /// The dataset label starts out `""` — chain [`Self::with_dataset`]
    /// before registering such an index with a
    /// [`crate::ServiceRouter`], or two part-assembled indices over
    /// *different* graphs but equal params will collide on the same
    /// [`crate::RouteKey`] (rejected as a duplicate, never silently
    /// mixed). [`Self::from_dataset`] labels automatically.
    pub fn new(
        graph: Arc<CsrGraph>,
        tnam: Option<Arc<Tnam>>,
        params: LacaParams,
    ) -> Result<Self, CoreError> {
        // Engine construction is the validation path; the engine itself is
        // rebuilt per worker (it is two references + params).
        Laca::new(&graph, tnam.as_deref(), params.clone())?;
        let fingerprint = {
            use std::hash::{Hash, Hasher};
            let mut h = rustc_hash::FxHasher::default();
            params.fingerprint().hash(&mut h);
            tnam.as_ref().map(|t| t.fingerprint()).hash(&mut h);
            h.finish()
        };
        Ok(ClusterIndex { graph, tnam, params, fingerprint, dataset: Arc::from("") })
    }

    /// Builds an index from a dataset: runs TNAM preprocessing (Algo. 3)
    /// when the params use the SNAS, then wraps everything in `Arc`s.
    ///
    /// This is the "offline phase" of the serving story — typically
    /// seconds to minutes — after which every query is online-cheap.
    pub fn from_dataset(
        ds: &AttributedDataset,
        tnam_config: &TnamConfig,
        params: LacaParams,
    ) -> Result<Self, CoreError> {
        let tnam = if params.use_snas {
            Some(Arc::new(Tnam::build(&ds.attributes, tnam_config)?))
        } else {
            None
        };
        Ok(Self::new(Arc::new(ds.graph.clone()), tnam, params)?.with_dataset(&ds.name))
    }

    /// Relabels the index's dataset (the routing-key half that the
    /// identity fingerprint does not cover). [`Self::from_dataset`] sets
    /// it from the dataset's name automatically; use this when assembling
    /// an index from parts via [`Self::new`].
    pub fn with_dataset(mut self, dataset: &str) -> Self {
        self.dataset = Arc::from(dataset);
        self
    }

    /// A query engine borrowing this index's graph and TNAM. It is
    /// `Send + Sync`: worker threads that share the index share it.
    pub fn engine(&self) -> Laca<'_> {
        Laca::new(&self.graph, self.tnam.as_deref(), self.params.clone())
            .expect("index was validated at construction")
    }

    /// The shared graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The prebuilt TNAM, when the params use the SNAS (`None` for
    /// topology-only indices).
    pub fn tnam(&self) -> Option<&Arc<Tnam>> {
        self.tnam.as_ref()
    }

    /// Number of nodes (valid seed ids are `0..n`).
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// The query parameters this index answers under.
    pub fn params(&self) -> &LacaParams {
        &self.params
    }

    /// The index identity fingerprint (params + TNAM config) used in
    /// cache and routing keys.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The dataset label (`""` when the index was assembled from parts
    /// without [`Self::with_dataset`]).
    pub fn dataset(&self) -> &str {
        &self.dataset
    }

    /// The `(dataset, index-fingerprint)` pair identifying this index in
    /// a [`crate::ServiceRouter`]'s routing table.
    pub fn route_key(&self) -> crate::RouteKey {
        crate::RouteKey::new(Arc::clone(&self.dataset), self.fingerprint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laca_core::MetricFn;
    use laca_graph::gen::{AttributeSpec, AttributedGraphSpec};

    fn dataset() -> AttributedDataset {
        AttributedGraphSpec {
            n: 120,
            n_clusters: 3,
            avg_degree: 6.0,
            p_intra: 0.85,
            missing_intra: 0.05,
            degree_exponent: 2.5,
            cluster_size_skew: 0.2,
            attributes: Some(AttributeSpec {
                dim: 32,
                topic_words: 8,
                tokens_per_node: 15,
                attr_noise: 0.2,
            }),
            seed: 11,
        }
        .generate("index-test")
        .unwrap()
    }

    #[test]
    fn fingerprint_distinguishes_params() {
        let base = LacaParams::new(1e-4);
        let fp = LacaParams::fingerprint;
        assert_eq!(fp(&base), fp(&base.clone()));
        assert_ne!(fp(&base), fp(&LacaParams::new(1e-5)));
        assert_ne!(fp(&base), fp(&base.clone().with_alpha(0.9)));
        assert_ne!(fp(&base), fp(&base.clone().with_sigma(0.2)));
        assert_ne!(fp(&base), fp(&base.clone().with_sigma(1.0)));
        assert_ne!(fp(&LacaParams::new(1e-4)), fp(&LacaParams::new(1e-4).without_snas()));
    }

    #[test]
    fn from_dataset_builds_and_clones_share_data() {
        let ds = dataset();
        let cfg = TnamConfig::new(8, MetricFn::Cosine);
        let index = ClusterIndex::from_dataset(&ds, &cfg, LacaParams::new(1e-4)).unwrap();
        let copy = index.clone();
        assert!(std::ptr::eq(index.graph(), copy.graph()), "clone copied the graph");
        assert_eq!(index.fingerprint(), copy.fingerprint());
        assert_eq!(index.n(), 120);
        // Engines from the same index answer identically.
        let a = index.engine().bdd(3).unwrap();
        let b = copy.engine().bdd(3).unwrap();
        assert_eq!(a.to_sorted_pairs(), b.to_sorted_pairs());
    }

    #[test]
    fn rejects_snas_params_without_tnam() {
        let ds = dataset();
        let err = ClusterIndex::new(Arc::new(ds.graph.clone()), None, LacaParams::new(1e-4));
        assert!(err.is_err());
        let ok = ClusterIndex::new(
            Arc::new(ds.graph.clone()),
            None,
            LacaParams::new(1e-4).without_snas(),
        );
        assert!(ok.is_ok());
    }
}
