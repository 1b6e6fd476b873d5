//! Multi-index routing benchmark for `laca-service`'s [`ServiceRouter`]:
//! throughput with 1 vs 3 registered indices (cold and warm), plus the
//! single-flight coalescing path under bursty identical misses.
//!
//! Substrate: cora-like (n ≈ 2.7k) with three param-distinct routes over
//! the same dataset — `ε = 1e-4`, `ε = 1e-3`, and `ε = 1e-4` without the
//! SNAS — the "many parameterizations served side by side" shape the
//! user-preference variants imply. Scenarios:
//!
//! * **cold** — per-route caches off; a fixed batch round-robins across
//!   `k` routes. The claim under test: routing adds one snapshot probe
//!   per submission, never a serialization point — `cold/k3` comes out
//!   *faster* per batch than `cold/k1` here because two of the three
//!   routes run cheaper parameterizations, which is exactly the
//!   multi-tenant shape the router exists to serve.
//! * **warm** — per-route caches on; the same uniform workload over
//!   `(route, seed)` pairs answered from the per-route caches.
//! * **coalesce/burst** — every iteration submits a *fresh* seed from
//!   `FAN` handles back-to-back through one route: one leads the flight,
//!   the rest must coalesce. The derived `coalesce/*` entries assert the
//!   economics (computes ≈ bursts, not bursts × FAN).
//!
//! Writes `BENCH_routing.json` at the repo root (override with
//! `BENCH_ROUTING_JSON`); the committed copy is the baseline the CI perf
//! gate diffs against.

use criterion::Criterion;
use laca_core::tnam::TnamConfig;
use laca_core::{LacaParams, MetricFn};
use laca_graph::datasets::cora_like;
use laca_graph::NodeId;
use laca_service::{ClusterIndex, RouteKey, ServiceConfig, ServiceRouter, ServiceStats};

/// Workers per registered route (the container is small; routing overhead
/// and coalescing — not compute scaling — are the subject here).
const ROUTE_WORKERS: usize = 1;
/// Queries per timed cold/warm batch (split across the routes in play).
const BATCH: usize = 96;
/// Handles submitted back-to-back per fresh key in the coalescing burst.
const FAN: usize = 8;
/// Fresh keys per coalescing iteration.
const BURST_KEYS: usize = 8;

fn build_routes() -> Vec<ClusterIndex> {
    let ds = cora_like().generate("cora").unwrap();
    let tnam_config = TnamConfig::new(16, MetricFn::Cosine);
    vec![
        ClusterIndex::from_dataset(&ds, &tnam_config, LacaParams::new(1e-4)).unwrap(),
        ClusterIndex::from_dataset(&ds, &tnam_config, LacaParams::new(1e-3)).unwrap(),
        ClusterIndex::from_dataset(&ds, &tnam_config, LacaParams::new(1e-4).without_snas())
            .unwrap(),
    ]
}

fn config(cache_per_worker: usize) -> ServiceConfig {
    ServiceConfig::default()
        .with_workers(ROUTE_WORKERS)
        .with_cache_per_worker(cache_per_worker)
        .with_queue_capacity(256)
}

/// A router serving the first `k` of `indices`.
fn router_with(
    indices: &[ClusterIndex],
    k: usize,
    cache_per_worker: usize,
) -> (ServiceRouter, Vec<RouteKey>) {
    let router = ServiceRouter::new();
    let keys = indices
        .iter()
        .take(k)
        .map(|idx| router.register(idx.clone(), config(cache_per_worker)).unwrap())
        .collect();
    (router, keys)
}

/// Submits `BATCH` queries round-robin across `keys`, then waits for all.
fn run_round_robin(router: &ServiceRouter, keys: &[RouteKey], n: usize) {
    let handles: Vec<_> = (0..BATCH)
        .map(|i| {
            let seed = ((i * 131) % n) as NodeId;
            router.submit(&keys[i % keys.len()], seed).expect("route vanished")
        })
        .collect();
    for h in handles {
        criterion::black_box(h.wait().expect("routed query failed").rho.support_size());
    }
}

fn main() {
    eprintln!("[routing bench] building 3 cora-like indices (TNAM k=16)...");
    let indices = build_routes();
    let n = indices[0].n();
    let mut criterion = Criterion::default();
    let mut group = criterion.benchmark_group("routing");

    // Cold: same batch size whether 1 or 3 routes serve it. The k3 leg
    // pays 3× the service objects, not 3× per-query cost.
    for k in [1usize, 3] {
        let (router, keys) = router_with(&indices, k, 0);
        group.bench_function(format!("cold/k{k}"), |b| {
            b.iter(|| run_round_robin(&router, &keys, n))
        });
    }

    // Warm: per-route caches sized to hold the whole working set.
    let warm_telemetry: ServiceStats;
    {
        let (router, keys) = router_with(&indices, 3, BATCH);
        run_round_robin(&router, &keys, n); // fill the caches, untimed
        let before = router.aggregate_stats();
        group.bench_function("warm/k3", |b| b.iter(|| run_round_robin(&router, &keys, n)));
        warm_telemetry = router.aggregate_stats().delta_since(&before);
    }

    // Coalescing burst: FAN submissions per fresh key; exactly one may
    // compute. `next` advances so every iteration's keys are cold.
    let coalesce_telemetry: ServiceStats;
    {
        let (router, keys) = router_with(&indices, 1, 4096);
        let service = router.route(&keys[0]).expect("route vanished");
        let mut next = 0usize;
        let before = router.aggregate_stats();
        group.bench_function(format!("coalesce/fan{FAN}"), |b| {
            b.iter(|| {
                let mut handles = Vec::with_capacity(BURST_KEYS * FAN);
                for _ in 0..BURST_KEYS {
                    let seed = ((next * 17) % n) as NodeId;
                    next += 1;
                    for _ in 0..FAN {
                        handles.push(service.submit(seed));
                    }
                }
                for h in handles {
                    criterion::black_box(h.wait().expect("burst query failed").rho.support_size());
                }
            })
        });
        coalesce_telemetry = router.aggregate_stats().delta_since(&before);
    }
    group.finish();

    let results = criterion::take_results();
    let tmin_of = |label: &str| results.iter().find(|r| r.label == label).map(|r| r.tmin_ns as f64);
    let mut derived: Vec<(String, f64)> = Vec::new();
    for k in [1usize, 3] {
        if let Some(ns) = tmin_of(&format!("routing/cold/k{k}")) {
            derived.push((format!("qps/cold/k{k}"), BATCH as f64 / (ns * 1e-9)));
        }
    }
    if let Some(ns) = tmin_of("routing/warm/k3") {
        derived.push(("qps/warm/k3".to_string(), BATCH as f64 / (ns * 1e-9)));
    }
    if let (Some(c1), Some(c3)) = (tmin_of("routing/cold/k1"), tmin_of("routing/cold/k3")) {
        // ≤1.0 when routing does not serialize the multi-index path
        // (below 1.0 here: 2 of the 3 routes run cheaper params).
        derived.push(("overhead/cold_k3_over_k1".to_string(), c3 / c1));
    }
    derived.push(("warm/hit_rate".to_string(), warm_telemetry.hit_rate()));
    derived.push(("warm/computed".to_string(), warm_telemetry.completed as f64));
    let submissions = (coalesce_telemetry.cache_hits
        + coalesce_telemetry.cache_misses
        + coalesce_telemetry.coalesced) as f64;
    derived.push(("coalesce/submissions".to_string(), submissions));
    derived.push(("coalesce/computed".to_string(), coalesce_telemetry.completed as f64));
    derived.push(("coalesce/coalesced".to_string(), coalesce_telemetry.coalesced as f64));
    // Fraction of burst submissions that did NOT pay a compute; with a
    // fan of FAN identical submissions per key the ceiling is 1 - 1/FAN.
    derived.push((
        "coalesce/saved_fraction".to_string(),
        if submissions > 0.0 {
            1.0 - coalesce_telemetry.completed as f64 / submissions
        } else {
            0.0
        },
    ));
    derived.push(("workload/batch".to_string(), BATCH as f64));
    derived.push(("workload/fan".to_string(), FAN as f64));
    derived.push(("workload/route_workers".to_string(), ROUTE_WORKERS as f64));

    let path =
        std::env::var("BENCH_ROUTING_JSON").map(std::path::PathBuf::from).unwrap_or_else(|_| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_routing.json")
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
