//! Graph substrate for the LACA reproduction.
//!
//! This crate provides everything the local-clustering algorithms stand on:
//!
//! * [`CsrGraph`] — a compressed-sparse-row adjacency store for connected,
//!   undirected graphs, optionally edge-weighted (attribute-reweighted
//!   baselines such as APR-Nibble and WFD need weights).
//! * [`AttributeMatrix`] — a sparse row-major node-attribute matrix with
//!   L2-normalized rows, the `X` of the paper.
//! * [`gen`] — synthetic attributed-graph generators (degree-corrected
//!   planted partitions with per-cluster topic models and tunable structural
//!   noise). These replace the paper's real datasets, which are not available
//!   offline; each [`datasets`] entry documents the paper statistics and
//!   noise regime it matches.
//! * [`datasets`] — a registry of named generator configurations mirroring
//!   the statistics of the paper's 8 attributed and 3 non-attributed
//!   datasets (Table III and Table VIII).
//! * [`io`] — plain-text persistence for graphs, attributes and ground-truth
//!   clusters.

pub mod attributes;
pub mod csr;
pub mod datasets;
pub mod gen;
pub mod io;

pub use attributes::AttributeMatrix;
pub use csr::{CsrGraph, GraphBuilder};
pub use datasets::{AttributedDataset, DatasetStats};

/// Node identifier. `u32` keeps hot structures compact (perf-guide: smaller
/// integers) while supporting graphs beyond the scale of this reproduction.
pub type NodeId = u32;

/// Errors produced by graph construction and I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge referenced a node id `>= n`.
    NodeOutOfRange { node: NodeId, n: usize },
    /// A weighted edge carried a non-positive or non-finite weight.
    InvalidWeight { u: NodeId, v: NodeId },
    /// The construction produced a graph with zero nodes.
    Empty,
    /// A node count beyond what [`NodeId`] can address (`n` above
    /// `NodeId::MAX + 1`).
    TooManyNodes { n: usize },
    /// Attribute row had an index `>= dim` or a non-finite value.
    InvalidAttribute { row: usize },
    /// Dimension mismatch between two structures that must agree.
    DimensionMismatch { expected: usize, found: usize },
    /// Raw CSR parts violated a structural invariant (monotone offsets,
    /// sorted/deduplicated adjacency, symmetry, weight positivity).
    /// Produced by [`CsrGraph::from_raw_parts`] /
    /// [`AttributeMatrix::from_raw_parts`] when handed malformed arrays —
    /// deserializers rely on this to fail closed instead of panicking.
    InvalidCsr { reason: &'static str },
    /// An I/O or parse failure, with a human-readable description.
    Io(String),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node id {node} out of range for graph with {n} nodes")
            }
            GraphError::InvalidWeight { u, v } => {
                write!(f, "edge ({u}, {v}) has a non-positive or non-finite weight")
            }
            GraphError::Empty => write!(f, "graph has no nodes"),
            GraphError::TooManyNodes { n } => {
                write!(f, "{n} nodes exceed the {}-node id range", u64::from(NodeId::MAX) + 1)
            }
            GraphError::InvalidAttribute { row } => {
                write!(f, "attribute row {row} has an out-of-range index or non-finite value")
            }
            GraphError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            GraphError::InvalidCsr { reason } => {
                write!(f, "invalid CSR structure: {reason}")
            }
            GraphError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e.to_string())
    }
}
