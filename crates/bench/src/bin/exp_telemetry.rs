//! **Telemetry scenario**: the flight recorder under a mixed workload —
//! cache hits, cold misses, coalesced joins and shed submissions all in
//! one burst — then the two artifacts the observability layer exists to
//! produce: a per-query span timeline (admission → probe → queue →
//! compute → reply, with kernel counters) and the Prometheus-style text
//! exposition (`laca_*` families with per-route latency summaries).
//! The run re-checks the accounting the exposition is built on: span
//! outcomes reconcile with the service counters, and histogram sample
//! counts match the completions they were recorded for.
//!
//! ```sh
//! cargo run --release -p laca-bench --bin exp_telemetry -- --seeds 12
//! ```

use laca_bench::{banner, load_dataset, ExpArgs};
use laca_core::tnam::TnamConfig;
use laca_core::{LacaParams, MetricFn};
use laca_eval::harness::sample_seeds;
use laca_eval::table::Table;
use laca_service::{
    AdmissionPolicy, ClusterIndex, QueryHandle, ServiceConfig, ServiceError, ServiceRouter,
};
use laca_telemetry::{QuerySpan, SpanOutcome, SUBMIT_WORKER};

/// One worker and a short queue so a burst actually sheds; the point of
/// the scenario is outcome *diversity*, not throughput.
const QUEUE_DEPTH: usize = 4;

fn micros(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1e3)
}

fn worker_label(span: &QuerySpan) -> String {
    if span.worker == SUBMIT_WORKER {
        "submit".to_string()
    } else {
        format!("w{}", span.worker)
    }
}

/// The span timeline table: one row per recorded span, newest last.
fn timeline(spans: &[QuerySpan]) -> Table {
    let mut table = Table::new(&[
        "id",
        "outcome",
        "lane",
        "queue us",
        "park us",
        "compute us",
        "total us",
        "pushes",
        "touched",
    ]);
    for span in spans {
        table.add_row(vec![
            span.id.to_string(),
            span.outcome.label().to_string(),
            worker_label(span),
            micros(span.queue_wait_ns()),
            micros(span.park_ns()),
            micros(span.compute_ns()),
            micros(span.total_ns()),
            span.pushes.to_string(),
            span.touched.to_string(),
        ]);
    }
    table
}

fn main() {
    let args = ExpArgs::parse(12);
    let names = args.dataset_names(&["pubmed"]);
    let params = LacaParams::new(1e-4);
    let tnam_config = TnamConfig::new(32, MetricFn::Cosine);

    for name in &names {
        let ds = load_dataset(name, args.scale);
        let pool = sample_seeds(&ds, args.seeds.max(4), 0x7E1E);
        let index = ClusterIndex::from_dataset(&ds, &tnam_config, params.clone())
            .expect("index construction");

        let router = ServiceRouter::new();
        let key = router
            .register(
                index,
                ServiceConfig::default()
                    .with_workers(1)
                    .with_queue_capacity(QUEUE_DEPTH)
                    .with_cache_per_worker(pool.len())
                    .with_admission(AdmissionPolicy::Shed)
                    .with_spans_per_worker(256),
            )
            .expect("register route");
        let service = router.route(&key).expect("route pinned");

        // --- Mixed workload ------------------------------------------
        // Half the pool is primed (burst-phase hits), half stays cold
        // (burst-phase misses); every cold seed appears twice in the
        // burst so in-flight misses coalesce, and the short queue sheds
        // whatever the single worker cannot absorb.
        let (primed, cold) = pool.split_at(pool.len() / 2);
        for &seed in primed {
            service.query(seed).expect("prime query");
        }
        service.reset_stats();
        let burst: Vec<_> = cold
            .iter()
            .chain(cold.iter())
            .chain(primed.iter())
            .chain(primed.iter())
            .copied()
            .collect();
        let handles: Vec<QueryHandle> = burst.iter().map(|&s| service.submit(s)).collect();
        let mut served = 0u64;
        let mut shed = 0u64;
        for handle in handles {
            match handle.wait() {
                Ok(_) => served += 1,
                Err(ServiceError::Overloaded) => shed += 1,
                Err(e) => panic!("burst: unexpected outcome {e}"),
            }
        }
        let stats = service.stats();
        assert_eq!(
            stats.cache_hits + stats.coalesced + stats.cache_misses + stats.shed,
            burst.len() as u64,
            "admission ledger out of balance"
        );
        // The histograms sample exactly what the counters count: one
        // queue-wait and one compute sample per computed job, and every
        // compute takes time.
        assert_eq!(stats.compute_hist.count, stats.completed, "compute histogram count");
        assert_eq!(stats.queue_wait_hist.count, stats.completed, "queue-wait histogram count");
        assert_eq!(stats.compute_hist.sum > 0, stats.completed > 0, "compute histogram sum");
        eprintln!(
            "[{name}] burst of {}: served {served}, shed {shed}, hits {}, coalesced {}, p99 compute {:?}ns",
            burst.len(),
            stats.cache_hits,
            stats.coalesced,
            stats.compute_hist.quantile(0.99),
        );

        // --- Artifact 1: the span timeline ---------------------------
        let recorder = service.flight_recorder();
        let spans = recorder.snapshot(16);
        assert!(!spans.is_empty(), "flight recorder captured nothing");
        let outcomes: Vec<SpanOutcome> = spans.iter().map(|s| s.outcome).collect();
        assert!(
            outcomes.contains(&SpanOutcome::Hit) && outcomes.contains(&SpanOutcome::Computed),
            "mixed workload should record both hits and computes"
        );
        banner(&format!(
            "Flight recorder on {name}: last {} of {} spans ({} dropped)",
            spans.len(),
            recorder.recorded(),
            recorder.dropped(),
        ));
        let table = timeline(&spans);
        println!("{}", table.render());
        table.write_csv(&args.out_dir.join(format!("telemetry_{name}.csv"))).expect("write csv");

        // --- Artifact 2: the rendered exposition ---------------------
        // Retire the route first so the render also exercises the
        // archive path (`laca_*_total` series outliving their route).
        drop(service);
        assert!(router.retire(&key));
        let rendered = router.telemetry().render_text();
        assert!(rendered.contains("laca_completed_total"), "missing counter family");
        assert!(rendered.contains("laca_compute_seconds"), "missing latency summary");
        banner(&format!("Rendered exposition for {name} (route retired, series archived)"));
        println!("{rendered}");
    }
}
