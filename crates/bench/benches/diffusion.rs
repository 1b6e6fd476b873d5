//! Criterion micro-benchmarks for the diffusion solvers (Section IV):
//! the quantitative backing for Fig. 5 / Table II — the epoch-stamped
//! `DiffusionWorkspace` solvers on the registry's mid-size graph
//! (pubmed-like, n ≈ 19.7k) across the operating range of `ε`, plus
//! `adaptive_wide/1e-5`: AdaptiveDiffuse from the degree-proportional input
//! `f_i = d_i / vol(G)`, whose residual covers the whole graph from the
//! first step, as LACA's Step 3 does at `pubmed_e5`'s ε.
//!
//! Besides the console report, this bench writes a machine-readable
//! `BENCH_diffusion.json` (override the path with `BENCH_DIFFUSION_JSON`)
//! containing every timing, so later changes have a perf trajectory to
//! compare against.

use criterion::{criterion_group, BenchmarkId, Criterion};
use laca_diffusion::{
    adaptive_diffuse_in, greedy_diffuse_in, nongreedy_diffuse_in, DiffusionParams,
    DiffusionWorkspace, SparseVec,
};
use laca_graph::datasets::pubmed_like;

fn bench_diffusion(c: &mut Criterion) {
    let ds = pubmed_like().generate("pubmed").unwrap();
    let f = SparseVec::unit(0);
    let mut ws = DiffusionWorkspace::for_graph(&ds.graph);
    let mut group = c.benchmark_group("diffusion");
    group.sample_size(20);
    for eps in [1e-3f64, 1e-4f64, 1e-5f64, 1e-6f64] {
        let params = DiffusionParams::new(0.8, eps);
        let id = format!("{eps:.0e}");
        group.bench_with_input(BenchmarkId::new("greedy", &id), &params, |b, p| {
            b.iter(|| greedy_diffuse_in(&ds.graph, &f, p, &mut ws).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("adaptive", &id), &params, |b, p| {
            b.iter(|| adaptive_diffuse_in(&ds.graph, &f, p, &mut ws).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("nongreedy", &id), &params, |b, p| {
            b.iter(|| nongreedy_diffuse_in(&ds.graph, &f, p, &mut ws).unwrap())
        });
    }
    let vol = ds.graph.total_volume();
    let wide = SparseVec::from_pairs(
        (0..ds.graph.n() as u32).map(|v| (v, ds.graph.weighted_degree(v) / vol)),
    );
    group.bench_with_input(
        BenchmarkId::new("adaptive_wide", "1e-5"),
        &DiffusionParams::new(0.8, 1e-5),
        |b, p| b.iter(|| adaptive_diffuse_in(&ds.graph, &wide, p, &mut ws).unwrap()),
    );
    group.finish();
}

criterion_group!(benches, bench_diffusion);

fn main() {
    benches();
    let results = criterion::take_results();
    // Default to the workspace root (cargo bench runs with the package as
    // cwd), so the committed perf trajectory lives at the repo top level.
    let path =
        std::env::var("BENCH_DIFFUSION_JSON").map(std::path::PathBuf::from).unwrap_or_else(|_| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_diffusion.json")
        });
    criterion::write_json(&path, &results, &[]).expect("failed to write bench JSON");
    // This custom main bypasses `criterion_main!`, so honor the generic
    // CRITERION_JSON hook here too (README documents it for every suite).
    if let Ok(generic) = std::env::var("CRITERION_JSON") {
        if !generic.is_empty() {
            criterion::write_json(std::path::Path::new(&generic), &results, &[])
                .expect("failed to write CRITERION_JSON");
        }
    }
    println!("\nwrote {} results to {}", results.len(), path.display());
}
