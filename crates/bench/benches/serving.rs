//! Serving-throughput benchmark for `laca-service`: queries/sec versus
//! worker count, cold versus warm result cache, on the registry's
//! mid-size graph (pubmed-like, n ≈ 19.7k — the same substrate as the
//! diffusion bench).
//!
//! Two scenarios per worker count `w ∈ {1, 2, 4}`:
//!
//! * **cold** — result cache disabled; every query runs the full Algo. 4
//!   pipeline on a worker. This measures raw compute throughput: it
//!   scales with workers up to the machine's core count (the committed
//!   baseline is from a 1-core container, where it is flat by
//!   construction).
//! * **warm** — the cache is enabled at the service's default
//!   *per-worker* budget semantics (each worker contributes a fixed
//!   number of cached answers, here 128, mirroring sharded serving
//!   systems where provisioning a worker brings its memory budget along).
//!   The workload draws uniformly from a 384-seed working set, so the
//!   aggregate cache covers 1/3 of the set at w=1 and all of it at w=4 —
//!   warm throughput scales with worker count through the hit rate
//!   *even on a single core*, and through compute parallelism beyond it.
//!
//! Writes `BENCH_serving.json` at the repo root (override with
//! `BENCH_SERVING_JSON`): all timings plus derived `qps/*`, `hit_rate/*`
//! and `scaling/*` entries. The committed copy is the perf-trajectory
//! baseline `bench_compare` diffs against.

use criterion::Criterion;
use laca_core::tnam::TnamConfig;
use laca_core::{LacaParams, MetricFn};
use laca_graph::datasets::pubmed_like;
use laca_graph::NodeId;
use laca_service::{ClusterIndex, QueryService, ServiceConfig, ServiceStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Distinct seeds in the query working set.
const SEED_POOL: usize = 384;
/// Result-cache budget each worker contributes (answers).
const CACHE_PER_WORKER: usize = 128;
/// Queries per timed cold batch.
const COLD_BATCH: usize = 64;
/// Queries per timed warm batch.
const WARM_BATCH: usize = 768;
/// Worker counts under test.
const WORKERS: [usize; 3] = [1, 2, 4];

fn build_index() -> ClusterIndex {
    let ds = pubmed_like().generate("pubmed").unwrap();
    ClusterIndex::from_dataset(&ds, &TnamConfig::new(32, MetricFn::Cosine), LacaParams::new(1e-4))
        .unwrap()
}

/// The working set: `SEED_POOL` distinct, deterministic seeds.
fn seed_pool(n: usize) -> Vec<NodeId> {
    (0..SEED_POOL).map(|i| ((i * 37) % n) as NodeId).collect()
}

/// A fixed uniform-random draw sequence over the pool (IRM workload).
fn workload(pool: &[NodeId], len: usize, rng_seed: u64) -> Vec<NodeId> {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    (0..len).map(|_| pool[rng.gen_range(0..pool.len())]).collect()
}

fn run_batch(service: &QueryService, batch: &[NodeId]) {
    for answer in service.query_batch(batch) {
        criterion::black_box(answer.expect("query failed").rho.support_size());
    }
}

/// Per-config warm-window counters captured while the bench runs.
struct WarmTelemetry {
    workers: usize,
    window: ServiceStats,
}

fn bench_serving(c: &mut Criterion, index: &ClusterIndex, telemetry: &mut Vec<WarmTelemetry>) {
    let pool = seed_pool(index.n());
    let mut group = c.benchmark_group("serving");
    group.sample_size(20);
    for &w in &WORKERS {
        // Cold: cache off; distinct seeds cycling the pool.
        let cold = QueryService::start(
            index.clone(),
            ServiceConfig::default()
                .with_workers(w)
                .with_cache_per_worker(0)
                .with_queue_capacity(256),
        );
        let cold_batch: Vec<NodeId> =
            (0..COLD_BATCH).map(|i| pool[(i * 13) % pool.len()]).collect();
        group.bench_function(format!("cold/w{w}"), |b| b.iter(|| run_batch(&cold, &cold_batch)));
        drop(cold);

        // Warm: per-worker cache budget; uniform draws from the pool.
        let warm = QueryService::start(
            index.clone(),
            ServiceConfig::default()
                .with_workers(w)
                .with_cache_per_worker(CACHE_PER_WORKER)
                .with_queue_capacity(256),
        );
        let warm_batch = workload(&pool, WARM_BATCH, 0x5EED ^ w as u64);
        // Reach the steady-state hit rate before timing starts, then
        // snapshot so the delta below covers only the warm window.
        run_batch(&warm, &warm_batch);
        let before = warm.stats();
        group.bench_function(format!("warm/w{w}"), |b| b.iter(|| run_batch(&warm, &warm_batch)));
        telemetry.push(WarmTelemetry { workers: w, window: warm.stats().delta_since(&before) });
    }
    group.finish();
}

fn main() {
    eprintln!("[serving bench] building pubmed-like index (TNAM k=32)...");
    let index = build_index();
    let mut telemetry = Vec::new();
    let mut criterion = Criterion::default();
    bench_serving(&mut criterion, &index, &mut telemetry);

    let results = criterion::take_results();
    // Derived throughput uses the trimmed min — same statistic the CI
    // perf gate compares, so the committed qps numbers match the gate.
    let min_of = |label: &str| results.iter().find(|r| r.label == label).map(|r| r.tmin_ns as f64);
    let mut derived: Vec<(String, f64)> = Vec::new();
    for &w in &WORKERS {
        if let Some(ns) = min_of(&format!("serving/cold/w{w}")) {
            derived.push((format!("qps/cold/w{w}"), COLD_BATCH as f64 / (ns * 1e-9)));
        }
        if let Some(ns) = min_of(&format!("serving/warm/w{w}")) {
            derived.push((format!("qps/warm/w{w}"), WARM_BATCH as f64 / (ns * 1e-9)));
        }
    }
    for t in &telemetry {
        derived.push((format!("hit_rate/warm/w{}", t.workers), t.window.hit_rate()));
        derived.push((
            format!("cache_capacity/w{}", t.workers),
            (t.workers * CACHE_PER_WORKER) as f64,
        ));
    }
    let mut scaling: Vec<(String, f64)> = Vec::new();
    {
        let ratio = |kind: &str, hi: usize, lo: usize| {
            let get = |w: usize| {
                derived.iter().find(|(k, _)| k == &format!("qps/{kind}/w{w}")).map(|&(_, v)| v)
            };
            match (get(hi), get(lo)) {
                (Some(a), Some(b)) if b > 0.0 => Some(a / b),
                _ => None,
            }
        };
        for kind in ["cold", "warm"] {
            if let Some(r) = ratio(kind, 4, 1) {
                scaling.push((format!("scaling/{kind}/w4_over_w1"), r));
            }
            if let Some(r) = ratio(kind, 2, 1) {
                scaling.push((format!("scaling/{kind}/w2_over_w1"), r));
            }
        }
    }
    derived.extend(scaling);
    derived.push(("workload/seed_pool".to_string(), SEED_POOL as f64));
    derived.push(("workload/warm_batch".to_string(), WARM_BATCH as f64));
    derived.push(("workload/cold_batch".to_string(), COLD_BATCH as f64));

    let path =
        std::env::var("BENCH_SERVING_JSON").map(std::path::PathBuf::from).unwrap_or_else(|_| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serving.json")
        });
    criterion::write_json(&path, &results, &derived).expect("failed to write bench JSON");
    if let Ok(generic) = std::env::var("CRITERION_JSON") {
        if !generic.is_empty() {
            criterion::write_json(std::path::Path::new(&generic), &results, &derived)
                .expect("failed to write CRITERION_JSON");
        }
    }
    println!(
        "\nwrote {} results and {} derived entries to {}",
        results.len(),
        derived.len(),
        path.display()
    );
    for (k, v) in &derived {
        println!("{k:<28} {v:.2}");
    }
}
