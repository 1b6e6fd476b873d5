//! RWR-based graph diffusion (Section IV of the paper).
//!
//! Everything LACA computes online reduces to one primitive: given a
//! non-negative vector `f`, produce `q` with
//!
//! ```text
//! 0 ≤ Σ_i f_i · π(v_i, v_t) − q_t ≤ ε · d(v_t)      for every t      (Eq. 14)
//! ```
//!
//! where `π` is the random-walk-with-restart score with continue
//! probability `α`. This crate provides:
//!
//! * [`SparseVec`] — the hashed sparse vectors at the solver boundary
//!   (inputs and outputs never allocate `O(n)`, preserving locality),
//! * [`DiffusionWorkspace`] — the epoch-stamped dense scratch the push
//!   loops actually run on, reused across queries (one per thread via
//!   [`workspace::with_thread_workspace`], checked out of a shared
//!   [`WorkspacePool`], or caller-managed through the `*_diffuse_in`
//!   entry points, or through the `*_run_in` loops that leave the result
//!   in the workspace for [`DiffusionWorkspace::reserve_into`] to read),
//! * [`greedy_diffuse`] — Algo. 1 (**GreedyDiffuse**),
//! * [`nongreedy_diffuse`] — the full-front iteration of Eq. 17 that the
//!   paper's Section IV-B study compares against,
//! * [`adaptive_diffuse`] — Algo. 2 (**AdaptiveDiffuse**), which switches
//!   between the two under a cost budget,
//! * [`mod@reference`] — the original hash-map solver implementations, kept as
//!   differential-testing oracles,
//! * [`exact`] — dense power-iteration references used by tests and by the
//!   approximation-bound experiments.

#![warn(missing_docs)]

pub mod adaptive;
pub mod exact;
pub mod greedy;
pub mod reference;
pub mod sparse_vec;
pub mod workspace;

pub use adaptive::{
    adaptive_diffuse, adaptive_diffuse_in, adaptive_run_in, nongreedy_diffuse,
    nongreedy_diffuse_in, nongreedy_run_in,
};
pub use greedy::{greedy_diffuse, greedy_diffuse_in, greedy_run_in};
pub use sparse_vec::SparseVec;
pub use workspace::{DiffusionWorkspace, PooledWorkspace, WorkspacePool};

use laca_graph::NodeId;

/// Parameters shared by all diffusion solvers.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffusionParams {
    /// Continue probability `α ∈ (0, 1)` of the RWR (the walk *stops* with
    /// probability `1 − α` at each step — the paper's convention).
    pub alpha: f64,
    /// Diffusion threshold `ε > 0` of Eq. 15. Callers that want the paper's
    /// Algo. 4 Step-3 scaling pass `ε · ‖φ'‖₁` here.
    pub epsilon: f64,
    /// Greedy/non-greedy balance `σ ∈ [0, 1]` (Algo. 2 only): non-greedy
    /// iterations run while `|supp(γ)| / |supp(r)| > σ` and the cost budget
    /// allows. `σ ≥ 1` makes AdaptiveDiffuse behave exactly like
    /// GreedyDiffuse (Lemma IV.3).
    pub sigma: f64,
    /// Record `‖r‖₁` after every iteration (Fig. 5 telemetry).
    pub record_residuals: bool,
}

impl DiffusionParams {
    /// Paper-typical defaults: `α = 0.8`, `σ = 0.1`.
    pub fn new(alpha: f64, epsilon: f64) -> Self {
        DiffusionParams { alpha, epsilon, sigma: 0.1, record_residuals: false }
    }

    /// Sets `σ`.
    pub fn with_sigma(mut self, sigma: f64) -> Self {
        self.sigma = sigma;
        self
    }

    /// Enables per-iteration residual recording.
    pub fn with_residual_recording(mut self) -> Self {
        self.record_residuals = true;
        self
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), DiffusionError> {
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return Err(DiffusionError::BadAlpha(self.alpha));
        }
        // NaN must be rejected too, so don't reduce this to `epsilon <= 0.0`.
        if self.epsilon.is_nan() || self.epsilon <= 0.0 {
            return Err(DiffusionError::BadEpsilon(self.epsilon));
        }
        if !(0.0..=1.0).contains(&self.sigma) {
            return Err(DiffusionError::BadSigma(self.sigma));
        }
        Ok(())
    }
}

/// Errors from the diffusion solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum DiffusionError {
    /// `α` outside `(0, 1)`.
    BadAlpha(f64),
    /// `ε` not strictly positive.
    BadEpsilon(f64),
    /// `σ` outside `[0, 1]`.
    BadSigma(f64),
    /// Input vector contained a negative or non-finite entry.
    BadInput(NodeId),
}

impl std::fmt::Display for DiffusionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffusionError::BadAlpha(a) => write!(f, "alpha {a} outside (0, 1)"),
            DiffusionError::BadEpsilon(e) => write!(f, "epsilon {e} must be > 0"),
            DiffusionError::BadSigma(s) => write!(f, "sigma {s} outside [0, 1]"),
            DiffusionError::BadInput(i) => {
                write!(f, "input vector entry {i} is negative or non-finite")
            }
        }
    }
}

impl std::error::Error for DiffusionError {}

/// Per-run telemetry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffusionStats {
    /// Total loop iterations.
    pub iterations: usize,
    /// Iterations that took the greedy branch.
    pub greedy_iterations: usize,
    /// Iterations that took the non-greedy branch (Eq. 17).
    pub nongreedy_iterations: usize,
    /// Total neighbor-push operations (the paper's cost measure).
    pub push_operations: usize,
    /// Non-greedy cost counter `C_tot` of Algo. 2.
    pub nongreedy_cost: f64,
    /// Peak occupancy of the workspace's frontier queue during the run —
    /// the kernel's instantaneous working-set signal (how much
    /// above-threshold residual was pending at the worst moment).
    pub frontier_peak: usize,
    /// Distinct nodes the push loops touched (the size of the query's
    /// dense working set; bounds the `to_sparse` output pass).
    pub touched: usize,
    /// Workspace epoch-stamp wrap-arounds absorbed by this run's
    /// `begin` (a full `O(n)` stamp reset; happens once every 2³²
    /// queries per workspace, so almost always 0).
    pub epoch_resets: usize,
    /// `‖r‖₁` after each iteration, when requested.
    pub residual_history: Vec<f64>,
}

/// Output of a diffusion solve.
#[derive(Debug, Clone)]
pub struct DiffusionResult {
    /// The reserve vector `q` satisfying Eq. 14.
    pub reserve: SparseVec,
    /// The final residual vector `r` (every entry below `ε·d`).
    pub residual: SparseVec,
    /// Telemetry.
    pub stats: DiffusionStats,
}

pub(crate) fn check_input(f: &SparseVec) -> Result<(), DiffusionError> {
    for (i, v) in f.iter() {
        if !(v.is_finite() && v >= 0.0) {
            return Err(DiffusionError::BadInput(i));
        }
    }
    Ok(())
}
