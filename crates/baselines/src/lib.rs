//! The 17 competitor methods of the LACA paper (Table IV), implemented
//! from scratch in Rust.
//!
//! | Group | Methods | Module |
//! |---|---|---|
//! | Local graph clustering | PR-Nibble, APR-Nibble, HK-Relax, CRD, p-Norm FD, WFD | [`pr_nibble`], [`hk_relax`], [`crd`], [`flow_diffusion`] |
//! | Link similarity | Jaccard, Adamic–Adar, Common-Nbrs, SimRank | [`link_sim`], [`simrank`] |
//! | Attribute similarity | SimAttr (C), SimAttr (E), AttriRank | [`attr_sim`], [`attrirank`] |
//! | Network embedding | Node2Vec, SAGE, PANE, CFANE (each with K-NN / k-means "SC" / DBSCAN extraction) | [`node2vec`], [`sage`], [`pane`], [`cfane`], [`embed_cluster`] |
//!
//! The learned-embedding baselines are faithful-but-simplified versions
//! (each module's doc records its simplification); everything else follows the
//! published algorithms.
//!
//! All methods expose a *score → cluster* interface compatible with the
//! paper's evaluation protocol (`|Cs| = |Ys|`, precision against ground
//! truth): [`Score`] wraps sparse (local methods) or dense (global
//! methods) score vectors with deterministic top-k extraction.

pub mod attr_sim;
pub mod attrirank;
pub mod cfane;
pub mod crd;
pub mod embed_cluster;
pub mod flow_diffusion;
pub mod hk_relax;
pub mod kernel;
pub mod link_sim;
pub mod node2vec;
pub mod pane;
pub mod pr_nibble;
pub mod sage;
pub mod simrank;

use laca_diffusion::SparseVec;
use laca_graph::NodeId;

/// Errors from baseline construction and queries.
#[derive(Debug, Clone, PartialEq)]
pub enum BaselineError {
    /// Underlying graph error.
    Graph(laca_graph::GraphError),
    /// Underlying linear-algebra error.
    Linalg(laca_linalg::LinalgError),
    /// Underlying diffusion error.
    Diffusion(laca_diffusion::DiffusionError),
    /// The method needs attributes the dataset does not have.
    NoAttributes,
    /// Parameter out of range.
    BadParameter(&'static str),
    /// Seed out of range.
    BadSeed(NodeId),
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::Graph(e) => write!(f, "graph error: {e}"),
            BaselineError::Linalg(e) => write!(f, "linalg error: {e}"),
            BaselineError::Diffusion(e) => write!(f, "diffusion error: {e}"),
            BaselineError::NoAttributes => write!(f, "method requires node attributes"),
            BaselineError::BadParameter(p) => write!(f, "bad parameter: {p}"),
            BaselineError::BadSeed(s) => write!(f, "seed node {s} out of range"),
        }
    }
}

impl std::error::Error for BaselineError {}

impl From<laca_graph::GraphError> for BaselineError {
    fn from(e: laca_graph::GraphError) -> Self {
        BaselineError::Graph(e)
    }
}

impl From<laca_linalg::LinalgError> for BaselineError {
    fn from(e: laca_linalg::LinalgError) -> Self {
        BaselineError::Linalg(e)
    }
}

impl From<laca_diffusion::DiffusionError> for BaselineError {
    fn from(e: laca_diffusion::DiffusionError) -> Self {
        BaselineError::Diffusion(e)
    }
}

/// A method's per-seed score vector, sparse or dense.
#[derive(Debug, Clone)]
pub enum Score {
    /// Local methods: scores on the explored region only.
    Sparse(SparseVec),
    /// Global methods: a score per node.
    Dense(Vec<f64>),
}

impl Score {
    /// Extracts the `size` top-scoring nodes, seed forced in, ties by id.
    pub fn top_k(&self, seed: NodeId, size: usize) -> Vec<NodeId> {
        match self {
            Score::Sparse(v) => laca_core::extract::top_k_cluster(v, seed, size),
            Score::Dense(v) => laca_core::extract::top_k_cluster_dense(v, seed, size),
        }
    }

    /// Score of one node.
    pub fn get(&self, v: NodeId) -> f64 {
        match self {
            Score::Sparse(s) => s.get(v),
            Score::Dense(d) => d.get(v as usize).copied().unwrap_or(0.0),
        }
    }

    /// Number of non-zero scores.
    pub fn support_size(&self) -> usize {
        match self {
            Score::Sparse(s) => s.support_size(),
            Score::Dense(d) => d.iter().filter(|&&v| v != 0.0).count(),
        }
    }
}
