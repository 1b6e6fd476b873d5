//! Multi-index serving: one [`ServiceRouter`] front door over several
//! parameterizations of several datasets — hot registration, routed
//! queries, single-flight coalescing of concurrent identical misses, and
//! live retirement.
//!
//! ```sh
//! cargo run --release --example multi_index_router
//! ```

use laca::graph::gen::{AttributeSpec, AttributedGraphSpec};
use laca::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn dataset(name: &str, n: usize, seed: u64) -> laca::graph::AttributedDataset {
    AttributedGraphSpec {
        n,
        n_clusters: 5,
        avg_degree: 9.0,
        p_intra: 0.8,
        missing_intra: 0.1,
        degree_exponent: 2.5,
        cluster_size_skew: 0.3,
        attributes: Some(AttributeSpec {
            dim: 200,
            topic_words: 25,
            tokens_per_node: 25,
            attr_noise: 0.3,
        }),
        seed,
    }
    .generate(name)
    .expect("generation")
}

fn main() {
    // 1. Two tenants, and two parameterizations of the first — four
    //    routes in total, each its own worker pool + cache.
    let citations = dataset("citations", 4_000, 11);
    let social = dataset("social", 2_500, 22);
    let tnam_config = TnamConfig::new(24, MetricFn::Cosine);
    let config = ServiceConfig::default().with_workers(2).with_queue_capacity(128);

    let router = ServiceRouter::new();
    let mut keys: Vec<RouteKey> = Vec::new();
    for (ds, params) in [
        (&citations, LacaParams::new(1e-5)),
        (&citations, LacaParams::new(1e-3)),
        (&social, LacaParams::new(1e-5)),
        (&social, LacaParams::new(1e-5).without_snas()),
    ] {
        let t0 = Instant::now();
        let index = ClusterIndex::from_dataset(ds, &tnam_config, params).expect("index");
        let key = router.register(index, config.clone()).expect("register");
        println!("registered {key} in {:?}", t0.elapsed());
        keys.push(key);
    }

    // 2. Routed queries: the same seed under different routes answers
    //    under that route's dataset + params.
    for key in &keys {
        let answer = router.query(key, 0).expect("routed query");
        println!("{key}: seed 0 -> |supp(ρ')| = {}", answer.rho.support_size());
    }

    // 3. Single-flight coalescing: 8 clients swarm one fresh seed on one
    //    route; the flight computes once and everyone shares the answer.
    let hot_route = keys[0].clone();
    let service = router.route(&hot_route).expect("route");
    let before = service.stats();
    let router = Arc::new(router);
    let swarm: Vec<_> = (0..8)
        .map(|_| {
            let router = Arc::clone(&router);
            let key = hot_route.clone();
            std::thread::spawn(move || router.query(&key, 1_234).expect("swarm query"))
        })
        .collect();
    let answers: Vec<_> = swarm.into_iter().map(|h| h.join().unwrap()).collect();
    let all_shared = answers.iter().all(|a| Arc::ptr_eq(a, &answers[0]));
    let stats = service.stats().delta_since(&before);
    println!(
        "swarm of 8 on one seed: {} compute(s), {} coalesced, {} hits, shared answer: {}",
        stats.completed, stats.coalesced, stats.cache_hits, all_shared
    );

    // 4. Hot retirement: drop a route under traffic; the rest keep
    //    serving, new submissions to the dead key fail fast.
    let retired = keys.pop().unwrap();
    assert!(router.retire(&retired));
    assert!(router.query(&retired, 0).is_err());
    println!("retired {retired}; {} routes remain", router.len());

    // 5. Fleet-wide counters.
    let agg = router.aggregate_stats();
    println!(
        "aggregate: {} workers | {} computed | {} hits | {} coalesced (hit rate {:.2})",
        agg.workers,
        agg.completed,
        agg.cache_hits,
        agg.coalesced,
        agg.hit_rate()
    );
}
