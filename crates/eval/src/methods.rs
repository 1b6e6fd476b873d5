//! Method registry: every row of the paper's Table IV/V plus LACA and its
//! ablated variants, behind one prepared-runner interface.
//!
//! [`MethodSpec::prepare`] performs (and times) the method's preprocessing
//! — TNAM construction for LACA, edge reweighting for APR-Nibble/WFD,
//! embedding training for the network-embedding group — and returns a
//! [`PreparedMethod`] whose `cluster(seed, size)` call is the timed online
//! phase. Applicability caps mirror the "-" entries of the paper's tables
//! (methods excluded on datasets they cannot finish).

use crate::{EvalComputeConfig, EvalError};
use laca_baselines::attr_sim::{AttrSimKind, SimAttr};
use laca_baselines::attrirank::AttriRank;
use laca_baselines::cfane::{cfane_embeddings, CfaneConfig};
use laca_baselines::crd::Crd;
use laca_baselines::embed_cluster::{kmeans_cluster, knn_cluster, DbscanIndex};
use laca_baselines::flow_diffusion::FlowDiffusion;
use laca_baselines::hk_relax::HkRelax;
use laca_baselines::kernel::gaussian_reweighted;
use laca_baselines::link_sim::{LinkSim, LinkSimKind};
use laca_baselines::node2vec::{node2vec_embeddings, Node2VecConfig};
use laca_baselines::pane::{pane_embeddings, PaneConfig};
use laca_baselines::pr_nibble::PrNibble;
use laca_baselines::sage::{sage_embeddings, SageConfig};
use laca_baselines::simrank::SimRank;
use laca_core::{Laca, LacaParams, MetricFn, Tnam, TnamConfig};
use laca_graph::{AttributedDataset, NodeId};
use laca_linalg::DenseMatrix;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Embedding → cluster extraction flavor (the paper's "(K-NN)", "(SC)",
/// "(DBSCAN)" table rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Extraction {
    /// Nearest neighbors of the seed.
    Knn,
    /// Partition clustering over the (spectral) embeddings.
    Sc,
    /// Density-based expansion around the seed.
    Dbscan,
}

impl Extraction {
    fn suffix(&self) -> &'static str {
        match self {
            Extraction::Knn => "K-NN",
            Extraction::Sc => "SC",
            Extraction::Dbscan => "DBSCAN",
        }
    }
}

/// All evaluated methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodSpec {
    /// LACA with the cosine metric — "LACA (C)".
    LacaC,
    /// LACA with the exponential-cosine metric — "LACA (E)".
    LacaE,
    /// LACA with attributes disabled — "LACA (w/o SNAS)".
    LacaWoSnas,
    /// PR-Nibble.
    PrNibble,
    /// APR-Nibble (attribute-reweighted PR-Nibble).
    AprNibble,
    /// HK-Relax.
    HkRelax,
    /// Capacity releasing diffusion.
    Crd,
    /// p-norm flow diffusion (p = 2).
    PNormFd,
    /// Weighted flow diffusion.
    Wfd,
    /// Jaccard link similarity.
    Jaccard,
    /// Adamic–Adar link similarity.
    AdamicAdar,
    /// Common-neighbor count.
    CommonNbrs,
    /// Single-source SimRank.
    SimRank,
    /// Attribute cosine similarity.
    SimAttrC,
    /// Attribute exponential-cosine similarity.
    SimAttrE,
    /// Attribute-informed PageRank.
    AttriRank,
    /// Node2Vec embeddings with the given extraction.
    Node2Vec(Extraction),
    /// GraphSAGE embeddings with the given extraction.
    Sage(Extraction),
    /// PANE embeddings with the given extraction.
    Pane(Extraction),
    /// CFANE embeddings with the given extraction.
    Cfane(Extraction),
}

impl MethodSpec {
    /// Every Table V row, in the paper's order.
    pub fn table_v_rows() -> Vec<MethodSpec> {
        use Extraction::*;
        use MethodSpec::*;
        vec![
            PrNibble,
            AprNibble,
            HkRelax,
            Crd,
            PNormFd,
            Wfd,
            Jaccard,
            AdamicAdar,
            CommonNbrs,
            SimRank,
            SimAttrC,
            SimAttrE,
            AttriRank,
            Node2Vec(Knn),
            Node2Vec(Sc),
            Node2Vec(Dbscan),
            Sage(Knn),
            Sage(Sc),
            Sage(Dbscan),
            Cfane(Knn),
            Cfane(Sc),
            Cfane(Dbscan),
            Pane(Knn),
            Pane(Sc),
            Pane(Dbscan),
            LacaC,
            LacaE,
        ]
    }

    /// Display label matching the paper's tables.
    pub fn label(&self) -> String {
        match self {
            MethodSpec::LacaC => "LACA (C)".into(),
            MethodSpec::LacaE => "LACA (E)".into(),
            MethodSpec::LacaWoSnas => "LACA (w/o SNAS)".into(),
            MethodSpec::PrNibble => "PR-Nibble".into(),
            MethodSpec::AprNibble => "APR-Nibble".into(),
            MethodSpec::HkRelax => "HK-Relax".into(),
            MethodSpec::Crd => "CRD".into(),
            MethodSpec::PNormFd => "p-Norm FD".into(),
            MethodSpec::Wfd => "WFD".into(),
            MethodSpec::Jaccard => "Jaccard".into(),
            MethodSpec::AdamicAdar => "Adamic-Adar".into(),
            MethodSpec::CommonNbrs => "Common-Nbrs".into(),
            MethodSpec::SimRank => "SimRank".into(),
            MethodSpec::SimAttrC => "SimAttr (C)".into(),
            MethodSpec::SimAttrE => "SimAttr (E)".into(),
            MethodSpec::AttriRank => "AttriRank".into(),
            MethodSpec::Node2Vec(e) => format!("Node2Vec ({})", e.suffix()),
            MethodSpec::Sage(e) => format!("SAGE ({})", e.suffix()),
            MethodSpec::Pane(e) => format!("PANE ({})", e.suffix()),
            MethodSpec::Cfane(e) => format!("CFANE ({})", e.suffix()),
        }
    }

    /// `true` if this method needs node attributes.
    pub fn requires_attributes(&self) -> bool {
        matches!(
            self,
            MethodSpec::LacaC
                | MethodSpec::LacaE
                | MethodSpec::AprNibble
                | MethodSpec::Wfd
                | MethodSpec::SimAttrC
                | MethodSpec::SimAttrE
                | MethodSpec::AttriRank
                | MethodSpec::Sage(_)
                | MethodSpec::Pane(_)
                | MethodSpec::Cfane(_)
        )
    }

    /// Applicability gate mirroring the paper's "-" exclusions (methods
    /// that exceeded the paper's 3-day preprocessing / 2-hour query limits
    /// on large inputs). Returns the reason when excluded.
    pub fn applicable(&self, n: usize, attributed: bool) -> Result<(), &'static str> {
        if self.requires_attributes() && !attributed {
            return Err("needs attributes");
        }
        let cap = match self {
            MethodSpec::SimRank => 25_000,
            MethodSpec::Sage(_) | MethodSpec::Cfane(_) => 10_000,
            MethodSpec::Node2Vec(Extraction::Sc) | MethodSpec::Pane(Extraction::Sc) => 10_000,
            // DBSCAN region queries are O(n²) per seed.
            MethodSpec::Node2Vec(Extraction::Dbscan) | MethodSpec::Pane(Extraction::Dbscan) => {
                25_000
            }
            MethodSpec::Node2Vec(_) => 80_000,
            _ => usize::MAX,
        };
        if n > cap {
            return Err("exceeds the method's scalability cap (paper: '-')");
        }
        Ok(())
    }

    /// The embedding family of this method, when it is an embedding row.
    fn embedding_family(&self) -> Option<EmbeddingFamily> {
        match self {
            MethodSpec::Node2Vec(_) => Some(EmbeddingFamily::Node2Vec),
            MethodSpec::Sage(_) => Some(EmbeddingFamily::Sage),
            MethodSpec::Pane(_) => Some(EmbeddingFamily::Pane),
            MethodSpec::Cfane(_) => Some(EmbeddingFamily::Cfane),
            _ => None,
        }
    }

    /// Runs (and times) this method's preprocessing against a dataset.
    pub fn prepare<'d>(
        &self,
        ds: &'d AttributedDataset,
        cfg: &EvalComputeConfig,
    ) -> Result<PreparedMethod<'d>, EvalError> {
        self.prepare_cached(ds, cfg, &mut None)
    }

    /// Prepares several methods, training each embedding family's model
    /// once and sharing it across the family's K-NN/SC/DBSCAN rows (they
    /// differ only in extraction). Results are returned in `specs` order.
    ///
    /// `prep_time` of a family's later rows excludes the shared training,
    /// so use [`MethodSpec::prepare`] when measuring per-method
    /// preprocessing cost (the Table V protocol); use this in tests and
    /// sweeps where wall clock matters more than attribution.
    pub fn prepare_all<'d>(
        specs: &[MethodSpec],
        ds: &'d AttributedDataset,
        cfg: &EvalComputeConfig,
    ) -> Vec<Result<PreparedMethod<'d>, EvalError>> {
        let mut cache = Some(EmbeddingCache::default());
        specs.iter().map(|spec| spec.prepare_cached(ds, cfg, &mut cache)).collect()
    }

    fn prepare_cached<'d>(
        &self,
        ds: &'d AttributedDataset,
        cfg: &EvalComputeConfig,
        cache: &mut Option<EmbeddingCache>,
    ) -> Result<PreparedMethod<'d>, EvalError> {
        let n = ds.graph.n();
        if let Err(reason) = self.applicable(n, ds.is_attributed()) {
            return Err(EvalError::NotApplicable { method: self.label(), reason });
        }
        let label = self.label();
        let start = Instant::now();
        let runner: Runner<'d> = match *self {
            MethodSpec::LacaC | MethodSpec::LacaE | MethodSpec::LacaWoSnas => {
                let metric = match self {
                    MethodSpec::LacaE => MetricFn::ExpCosine { delta: cfg.delta },
                    _ => MetricFn::Cosine,
                };
                let tnam = if matches!(self, MethodSpec::LacaWoSnas) {
                    None
                } else {
                    Some(Tnam::build(
                        &ds.attributes,
                        &TnamConfig::new(cfg.tnam_k, metric).with_seed(cfg.seed),
                    )?)
                };
                let mut params =
                    LacaParams::new(cfg.epsilon).with_alpha(cfg.alpha).with_sigma(cfg.sigma);
                if matches!(self, MethodSpec::LacaWoSnas) {
                    params = params.without_snas();
                }
                Box::new(move |seed, size| {
                    let engine = Laca::new(&ds.graph, tnam.as_ref(), params.clone())?;
                    Ok(engine.cluster(seed, size)?)
                })
            }
            MethodSpec::PrNibble => {
                let alpha = cfg.alpha;
                let eps = cfg.epsilon;
                Box::new(move |seed, size| {
                    Ok(PrNibble::new(&ds.graph, alpha, eps).cluster(seed, size)?)
                })
            }
            MethodSpec::AprNibble => {
                let wg = gaussian_reweighted(&ds.graph, &ds.attributes, cfg.kernel_bandwidth)?;
                let alpha = cfg.alpha;
                let eps = cfg.epsilon;
                Box::new(move |seed, size| Ok(PrNibble::new(&wg, alpha, eps).cluster(seed, size)?))
            }
            MethodSpec::HkRelax => {
                let t = cfg.hk_t;
                let eps = cfg.epsilon;
                Box::new(move |seed, size| Ok(HkRelax::new(&ds.graph, t, eps).cluster(seed, size)?))
            }
            MethodSpec::Crd => {
                Box::new(move |seed, size| Ok(Crd::new(&ds.graph).cluster(seed, size)?))
            }
            MethodSpec::PNormFd => {
                Box::new(move |seed, size| Ok(FlowDiffusion::new(&ds.graph).cluster(seed, size)?))
            }
            MethodSpec::Wfd => {
                let wg = gaussian_reweighted(&ds.graph, &ds.attributes, cfg.kernel_bandwidth)?;
                Box::new(move |seed, size| Ok(FlowDiffusion::new(&wg).cluster(seed, size)?))
            }
            MethodSpec::Jaccard | MethodSpec::AdamicAdar | MethodSpec::CommonNbrs => {
                let kind = match self {
                    MethodSpec::Jaccard => LinkSimKind::Jaccard,
                    MethodSpec::AdamicAdar => LinkSimKind::AdamicAdar,
                    _ => LinkSimKind::CommonNeighbors,
                };
                Box::new(move |seed, size| Ok(LinkSim::new(&ds.graph, kind).cluster(seed, size)?))
            }
            MethodSpec::SimRank => {
                Box::new(move |seed, size| Ok(SimRank::new(&ds.graph).cluster(seed, size)?))
            }
            MethodSpec::SimAttrC | MethodSpec::SimAttrE => {
                let kind = match self {
                    MethodSpec::SimAttrE => AttrSimKind::ExpCosine { delta: cfg.delta },
                    _ => AttrSimKind::Cosine,
                };
                Box::new(move |seed, size| {
                    Ok(SimAttr::new(&ds.attributes, kind)?.cluster(seed, size)?)
                })
            }
            MethodSpec::AttriRank => {
                let ar = AttriRank::new(&ds.graph, &ds.attributes, 0.85, cfg.tnam_k, 30, cfg.seed)?;
                Box::new(move |seed, size| Ok(ar.cluster(seed, size)?))
            }
            MethodSpec::Node2Vec(ex)
            | MethodSpec::Sage(ex)
            | MethodSpec::Pane(ex)
            | MethodSpec::Cfane(ex) => {
                let family = self.embedding_family().expect("embedding arm");
                // `Arc` so the cache and every extraction row share one
                // trained matrix instead of deep-copying ~n·dim floats
                // per row.
                let emb = match cache {
                    Some(map) => match map.get(&family) {
                        Some(emb) => Arc::clone(emb),
                        None => {
                            let emb = Arc::new(train_embedding(family, ds, cfg)?);
                            map.insert(family, Arc::clone(&emb));
                            emb
                        }
                    },
                    None => Arc::new(train_embedding(family, ds, cfg)?),
                };
                embedding_runner(ds, emb, ex, cfg.seed)
            }
        };
        Ok(PreparedMethod { label, prep_time: start.elapsed(), runner })
    }
}

/// Embedding methods grouped by the model they train (the extraction
/// variants of a family share it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum EmbeddingFamily {
    Node2Vec,
    Sage,
    Pane,
    Cfane,
}

type EmbeddingCache = rustc_hash::FxHashMap<EmbeddingFamily, Arc<DenseMatrix>>;

fn train_embedding(
    family: EmbeddingFamily,
    ds: &AttributedDataset,
    cfg: &EvalComputeConfig,
) -> Result<DenseMatrix, EvalError> {
    let emb = match family {
        EmbeddingFamily::Node2Vec => node2vec_embeddings(
            &ds.graph,
            &Node2VecConfig { seed: cfg.seed, ..Default::default() },
        )?,
        EmbeddingFamily::Sage => sage_embeddings(
            &ds.graph,
            &ds.attributes,
            &SageConfig { seed: cfg.seed, ..Default::default() },
        )?,
        EmbeddingFamily::Pane => pane_embeddings(
            &ds.graph,
            &ds.attributes,
            &PaneConfig { seed: cfg.seed, alpha: cfg.alpha, ..Default::default() },
        )?,
        EmbeddingFamily::Cfane => cfane_embeddings(
            &ds.graph,
            &ds.attributes,
            &CfaneConfig { seed: cfg.seed, ..Default::default() },
        )?,
    };
    Ok(emb)
}

type Runner<'d> = Box<dyn Fn(NodeId, usize) -> Result<Vec<NodeId>, EvalError> + Send + Sync + 'd>;

fn embedding_runner<'d>(
    ds: &'d AttributedDataset,
    emb: Arc<DenseMatrix>,
    ex: Extraction,
    seed: u64,
) -> Runner<'d> {
    let num_clusters = ds.clusters.len().max(2);
    // DBSCAN's density components are query-independent: index them once
    // here (prep phase) so each query is a component lookup, not an
    // O(n²·d) re-scan.
    let dbscan = match ex {
        Extraction::Dbscan => Some(DbscanIndex::build(&emb, 0.2, 5)),
        _ => None,
    };
    Box::new(move |s, size| {
        Ok(match ex {
            Extraction::Knn => knn_cluster(&emb, s, size),
            Extraction::Sc => kmeans_cluster(&emb, s, size, num_clusters, seed),
            Extraction::Dbscan => {
                dbscan.as_ref().expect("index built above").cluster(&emb, s, size)
            }
        })
    })
}

/// A method after preprocessing: ready to answer seed queries.
pub struct PreparedMethod<'d> {
    /// Table label.
    pub label: String,
    /// Wall-clock preprocessing time.
    pub prep_time: Duration,
    runner: Runner<'d>,
}

impl PreparedMethod<'_> {
    /// Runs one local-clustering query.
    pub fn cluster(&self, seed: NodeId, size: usize) -> Result<Vec<NodeId>, EvalError> {
        (self.runner)(seed, size)
    }
}

impl std::fmt::Debug for PreparedMethod<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedMethod")
            .field("label", &self.label)
            .field("prep_time", &self.prep_time)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EvalComputeConfig;
    use laca_graph::gen::{AttributeSpec, AttributedGraphSpec};

    fn dataset() -> AttributedDataset {
        AttributedGraphSpec {
            n: 150,
            n_clusters: 3,
            avg_degree: 8.0,
            p_intra: 0.85,
            missing_intra: 0.0,
            degree_exponent: 2.3,
            cluster_size_skew: 0.2,
            attributes: Some(AttributeSpec {
                dim: 50,
                topic_words: 10,
                tokens_per_node: 20,
                attr_noise: 0.25,
            }),
            seed: 51,
        }
        .generate("reg")
        .unwrap()
    }

    #[test]
    fn every_table_v_method_prepares_and_clusters() {
        let ds = dataset();
        let cfg = EvalComputeConfig::default();
        for spec in MethodSpec::table_v_rows() {
            let prepared = spec.prepare(&ds, &cfg).unwrap_or_else(|e| {
                panic!("{} failed to prepare: {e}", spec.label());
            });
            let cluster = prepared.cluster(0, 10).unwrap_or_else(|e| {
                panic!("{} failed to cluster: {e}", prepared.label);
            });
            assert!(!cluster.is_empty(), "{} returned empty", prepared.label);
            assert!(cluster.contains(&0), "{} dropped the seed", prepared.label);
            // No duplicates.
            let set: std::collections::HashSet<_> = cluster.iter().collect();
            assert_eq!(set.len(), cluster.len(), "{} duplicated nodes", prepared.label);
        }
    }

    #[test]
    fn applicability_gates_match_paper_exclusions() {
        assert!(MethodSpec::SimRank.applicable(30_000, true).is_err());
        assert!(MethodSpec::Sage(Extraction::Knn).applicable(20_000, true).is_err());
        assert!(MethodSpec::Cfane(Extraction::Sc).applicable(20_000, true).is_err());
        assert!(MethodSpec::LacaC.applicable(2_000_000, true).is_ok());
        assert!(MethodSpec::LacaC.applicable(100, false).is_err(), "LACA (C) needs attributes");
        assert!(MethodSpec::LacaWoSnas.applicable(100, false).is_ok());
        assert!(MethodSpec::PrNibble.applicable(2_000_000, false).is_ok());
    }

    #[test]
    fn attribute_methods_rejected_on_plain_graphs() {
        let spec = AttributedGraphSpec {
            n: 100,
            n_clusters: 2,
            avg_degree: 6.0,
            p_intra: 0.9,
            missing_intra: 0.0,
            degree_exponent: 0.0,
            cluster_size_skew: 0.0,
            attributes: None,
            seed: 1,
        };
        let ds = spec.generate("plain").unwrap();
        let cfg = EvalComputeConfig::default();
        assert!(matches!(
            MethodSpec::SimAttrC.prepare(&ds, &cfg),
            Err(EvalError::NotApplicable { .. })
        ));
        assert!(MethodSpec::PrNibble.prepare(&ds, &cfg).is_ok());
    }

    #[test]
    fn labels_are_unique() {
        let labels: Vec<String> = MethodSpec::table_v_rows().iter().map(|m| m.label()).collect();
        let set: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(set.len(), labels.len());
    }
}
