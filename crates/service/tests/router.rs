//! Router suite: routing isolation between indices, hot
//! registration/retirement under live traffic, and error surfaces.

use laca_core::tnam::TnamConfig;
use laca_core::{LacaParams, MetricFn};
use laca_graph::gen::{AttributeSpec, AttributedGraphSpec};
use laca_graph::{AttributedDataset, NodeId};
use laca_service::{ClusterIndex, RouteKey, RouterError, ServiceConfig, ServiceRouter};
use std::sync::Arc;

fn dataset(name: &str, seed: u64) -> AttributedDataset {
    AttributedGraphSpec {
        n: 250,
        n_clusters: 3,
        avg_degree: 7.0,
        p_intra: 0.85,
        missing_intra: 0.05,
        degree_exponent: 2.5,
        cluster_size_skew: 0.2,
        attributes: Some(AttributeSpec {
            dim: 48,
            topic_words: 10,
            tokens_per_node: 16,
            attr_noise: 0.25,
        }),
        seed,
    }
    .generate(name)
    .unwrap()
}

fn index(ds: &AttributedDataset, params: LacaParams) -> ClusterIndex {
    ClusterIndex::from_dataset(ds, &TnamConfig::new(10, MetricFn::Cosine), params).unwrap()
}

fn bit_pairs(v: &laca_diffusion::SparseVec) -> Vec<(NodeId, u64)> {
    v.to_sorted_pairs().into_iter().map(|(i, x)| (i, x.to_bits())).collect()
}

#[test]
fn route_key_derives_from_dataset_params_and_tnam_identity() {
    let ds = dataset("alpha", 7);
    let fine = index(&ds, LacaParams::new(1e-4));
    let coarse = index(&ds, LacaParams::new(1e-3));
    assert_eq!(fine.dataset(), "alpha");
    assert_eq!(fine.route_key().dataset(), "alpha");
    assert_eq!(fine.route_key().fingerprint(), fine.fingerprint());
    assert_ne!(fine.route_key(), coarse.route_key(), "params must split routes");
    assert_ne!(
        fine.route_key(),
        RouteKey::new("beta", fine.fingerprint()),
        "dataset must split routes"
    );
    assert_eq!(fine.route_key(), RouteKey::new("alpha", fine.fingerprint()));
    let display = fine.route_key().to_string();
    assert!(display.starts_with("alpha@"), "unexpected RouteKey display: {display}");

    // Same dataset, same params, different TNAM builds (width, metric,
    // sketch seed): genuinely different indices, so they must get
    // distinct keys and register side by side.
    let params = LacaParams::new(1e-4);
    let base =
        ClusterIndex::from_dataset(&ds, &TnamConfig::new(10, MetricFn::Cosine), params.clone())
            .unwrap();
    let wider =
        ClusterIndex::from_dataset(&ds, &TnamConfig::new(12, MetricFn::Cosine), params.clone())
            .unwrap();
    let euclid = ClusterIndex::from_dataset(
        &ds,
        &TnamConfig::new(10, MetricFn::ExpCosine { delta: 1.0 }),
        params.clone(),
    )
    .unwrap();
    let reseeded = ClusterIndex::from_dataset(
        &ds,
        &TnamConfig::new(10, MetricFn::Cosine).with_seed(99),
        params,
    )
    .unwrap();
    for (label, other) in [("k", &wider), ("metric", &euclid), ("seed", &reseeded)] {
        assert_ne!(base.route_key(), other.route_key(), "TNAM {label} must split routes");
    }
    let router = ServiceRouter::new();
    let config = ServiceConfig::default().with_workers(1);
    router.register(base, config.clone()).expect("base registers");
    router.register(wider, config.clone()).expect("wider TNAM registers alongside");
    router.register(euclid, config).expect("euclidean TNAM registers alongside");
    assert_eq!(router.len(), 3);
}

#[test]
fn routes_answer_under_their_own_params_and_stats_stay_isolated() {
    let ds = dataset("alpha", 7);
    let fine_params = LacaParams::new(1e-5);
    let coarse_params = LacaParams::new(1e-3);
    let router = ServiceRouter::new();
    let config = ServiceConfig::default().with_workers(1).with_cache_per_worker(32);
    let fine = router.register(index(&ds, fine_params.clone()), config.clone()).unwrap();
    let coarse = router.register(index(&ds, coarse_params.clone()), config).unwrap();
    assert_eq!(router.len(), 2);

    // Each route reproduces ITS params' serial answer bit-for-bit.
    for (key, params) in [(&fine, &fine_params), (&coarse, &coarse_params)] {
        let serial = {
            let idx = index(&ds, params.clone());
            idx.engine().bdd(3).unwrap()
        };
        let routed = router.query(key, 3).expect("routed query failed");
        assert_eq!(bit_pairs(&routed.rho), bit_pairs(&serial), "route {key} diverged");
    }

    // Traffic lands on the right route's counters; the cache of one route
    // never serves the other (different key, same seed).
    let fine_stats = router.stats(&fine).unwrap();
    let coarse_stats = router.stats(&coarse).unwrap();
    assert_eq!(fine_stats.cache_misses, 1);
    assert_eq!(coarse_stats.cache_misses, 1);
    let agg = router.aggregate_stats();
    assert_eq!(agg.completed, 2);
    assert_eq!(agg.workers, 2);
    assert_eq!(router.stats_by_route().len(), 2);

    // A window is a snapshot pair: one more query shows up as exactly
    // one miss and one completion, while the lifetime totals keep going.
    let before = router.aggregate_stats();
    router.query(&fine, 4).expect("routed query failed");
    let window = router.aggregate_stats().delta_since(&before);
    assert_eq!((window.cache_misses, window.completed), (1, 1));
    assert_eq!(router.aggregate_stats().completed, 3);
}

#[test]
fn unknown_and_duplicate_routes_error_cleanly() {
    let ds = dataset("alpha", 7);
    let router = ServiceRouter::new();
    let params = LacaParams::new(1e-4);
    let ghost = RouteKey::new("ghost", 42);
    assert!(matches!(router.submit(&ghost, 0), Err(RouterError::UnknownRoute(_))));
    assert!(matches!(router.query_batch(&ghost, &[0, 1]), Err(RouterError::UnknownRoute(_))));
    assert!(router.stats(&ghost).is_none());

    let key = router
        .register(index(&ds, params.clone()), ServiceConfig::default().with_workers(1))
        .unwrap();
    let dup = router.register(index(&ds, params), ServiceConfig::default().with_workers(1));
    assert!(matches!(dup, Err(RouterError::DuplicateRoute(k)) if k == key));
    assert_eq!(router.len(), 1, "failed registration must not disturb the live route");
    assert!(router.query(&key, 0).is_ok());
}

#[test]
fn retire_under_traffic_drains_inflight_and_fails_new_submissions() {
    let ds = dataset("alpha", 7);
    let router = ServiceRouter::new();
    let key = router
        .register(
            index(&ds, LacaParams::new(1e-5)),
            ServiceConfig::default().with_workers(1).with_queue_capacity(128),
        )
        .unwrap();
    // Load the route, then retire it while those queries are queued.
    let handles: Vec<_> = (0..32).map(|s| router.submit(&key, s).unwrap()).collect();
    assert!(router.retire(&key));
    assert!(!router.retire(&key), "double retirement must report false");
    assert!(router.is_empty());
    assert!(matches!(router.submit(&key, 0), Err(RouterError::UnknownRoute(_))));

    // Every pre-retirement query still completes: the snapshot kept the
    // service alive until its queue drained.
    for (s, h) in handles.into_iter().enumerate() {
        let answer = h.wait().expect("in-flight query dropped by retirement");
        assert_eq!(answer.seed, s as NodeId);
    }

    // The retired route's series outlive it: the exposition renders its
    // archived counters and latency summary, so a scraper never sees
    // them vanish.
    let rendered = router.telemetry().render_text();
    let label = format!("{{route=\"{key}\"}}");
    for series in ["laca_completed_total", "laca_compute_seconds_count"] {
        assert!(rendered.contains(&format!("{series}{label}")), "{series} not archived");
    }
}

#[test]
fn concurrent_clients_and_registrations_share_the_router() {
    let ds_a = dataset("alpha", 7);
    let ds_b = dataset("beta", 8);
    let router = Arc::new(ServiceRouter::new());
    let key_a = router
        .register(index(&ds_a, LacaParams::new(1e-4)), ServiceConfig::default().with_workers(2))
        .unwrap();

    // Clients hammer route A while route B registers and serves mid-storm.
    let clients: Vec<_> = (0..3u32)
        .map(|c| {
            let router = Arc::clone(&router);
            let key = key_a.clone();
            std::thread::spawn(move || {
                let seeds: Vec<NodeId> = (0..24).map(|i| (c + i * 5) % 250).collect();
                router
                    .query_batch(&key, &seeds)
                    .expect("route vanished")
                    .into_iter()
                    .filter(|r| r.is_ok())
                    .count()
            })
        })
        .collect();
    let key_b = router
        .register(index(&ds_b, LacaParams::new(1e-4)), ServiceConfig::default().with_workers(1))
        .unwrap();
    let b_answer = router.query(&key_b, 5).expect("fresh route must serve immediately");
    assert_eq!(b_answer.seed, 5);
    let served: usize = clients.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(served, 3 * 24);
    assert_eq!(router.keys().len(), 2);
}
