//! End-to-end benchmark of LACA's two user-facing paths: seed → cluster
//! through `Laca::cluster`, and `submit` → reply through `QueryService`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload pubmed_e5 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` is a separate
//! run that times each layer from outside the program: the offline phases,
//! Algo. 4's steps rebuilt from public calls (checked bit for bit against
//! `Laca::bdd_with_stats_in`), the persist round trip, and the service
//! under the workload's open-loop load. `perfbench/README.md` says why
//! each workload exists and which end-to-end metric each layer metric
//! should move.
//!
//! Every metric is printed as `name value unit`; the last line of standard
//! output is one JSON object `{correct, attempted, failed, metrics}`. A
//! failed query or output check makes the exit code non-zero.

mod query;
mod serve;
mod setup;
mod stats;

use laca_core::LacaParams;
use laca_service::ClusterIndex;
use stats::{hist_quantile_ns, median, peak_rss_mb, quantile, ratio};
use std::process::ExitCode;
use std::sync::Arc;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// TNAM width (cosine metric) of every workload.
pub const TNAM_K: usize = 32;
/// Service workers; the arrival rates below assume this many cores.
const SERVICE_WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// `serve_zipf` replies checked bit for bit against serial answers.
const SERVE_CHECKS: usize = 512;
/// Distinct `serve_zipf` seeds whose clusters are scored for precision.
const PRECISION_SEEDS: usize = 2048;
/// Replies checked in a query workload's traced service phase (fewer:
/// each ρ' at ε = 1e-5 holds tens of thousands of entries).
const TRACE_CHECKS: usize = 64;
/// A run is invalid, and reports nothing, when the load generator's 99th
/// percentile lateness exceeds this many inter-arrival gaps: it could not
/// keep to its schedule (starved, or `submit` blocked on a full queue),
/// so the offered load was not the stated one.
const LATE_LIMIT_GAPS: f64 = 30.0;
/// `serve_zipf` latency is summarised per window of consecutive requests
/// and reported as the median over windows: one host stall builds a
/// queue that skews the tail of its own window only.
const WINDOWS: usize = 10;

/// One workload. All use TNAM k = 32, cosine, α = 0.8, σ = 0.1.
pub struct Workload {
    pub name: &'static str,
    /// Registry name for `datasets::by_name`, at its default scale.
    pub dataset: &'static str,
    pub epsilon: f64,
    /// `false`: a closed loop over `Laca::cluster` on distinct uniform
    /// seeds; `true`: Zipf(1.0) requests through the service.
    pub serve: bool,
    /// Fixed open-loop arrival rate (requests/s) of the service phase,
    /// never recalibrated per run. For the query workloads it loads two
    /// workers to about 60%; for `serve_zipf` its misses use about 42% of
    /// the 2.7k computes/s two workers sustain, because nearer saturation
    /// the p99 swung by more than the benchmark's bound between runs.
    pub rate: f64,
}

/// `amazon_e5` is run by hand: its run-to-run spread on a shared host
/// exceeded the regression bounds, so `BENCHMARK.json` leaves it out.
const WORKLOADS: [Workload; 3] = [
    Workload { name: "pubmed_e5", dataset: "pubmed", epsilon: 1e-5, serve: false, rate: 160.0 },
    Workload { name: "amazon_e5", dataset: "amazon2m", epsilon: 1e-5, serve: false, rate: 220.0 },
    Workload { name: "serve_zipf", dataset: "pubmed", epsilon: 1e-4, serve: true, rate: 3000.0 },
];

const USAGE: &str =
    "usage: perfbench --workload <pubmed_e5|amazon_e5|serve_zipf> --seed <u64> --seconds <s> --trace <0|1>";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        WORKLOADS
                            .iter()
                            .find(|w| w.name == value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = value.parse().map_err(|e| format!("--seed {value:?}: {e}"))?,
                "--seconds" => {
                    seconds = value.parse().map_err(|e| format!("--seconds {value:?}: {e}"))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err(format!("--seconds {value} is outside (0, 600]"));
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace {value:?} is not 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Args { workload, seed, seconds, trace })
    }
}

#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Counts a query that errored or failed an output check.
    pub fn fail(&mut self, what: String) {
        eprintln!("check failed: {what}");
        self.failed += 1;
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn print(&self) -> Res<()> {
        if let Some((name, value, _)) = self.metrics.iter().find(|m| !m.1.is_finite()) {
            return Err(format!("metric {name} is {value}").into());
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<26} {value:>16.6} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        Ok(())
    }
}

fn run(args: &Args, workers: usize, report: &mut Report) -> Res<()> {
    let w = args.workload;
    let params = LacaParams::new(w.epsilon);
    // The offline phase. It is the query workloads' set-up, so they
    // repeat it and report the median.
    let mut offline = Vec::new();
    let mut built = None;
    for _ in 0..if w.serve { 1 } else { SETUP_REPS } {
        drop(built.take());
        let b = setup::build(w)?;
        offline.push((b.gen_s, b.build_s));
        built = Some(b);
    }
    let built = built.ok_or("no set-up ran")?;
    let offline_median =
        |f: fn(&(f64, f64)) -> f64| median(&offline.iter().map(f).collect::<Vec<_>>());
    let streams = serve::Streams::new(w, built.n(), args.seed, args.seconds)?;

    if !w.serve && !args.trace {
        let closed = query::closed_loop(
            &built,
            &params,
            &streams.warm,
            &streams.timed,
            args.seconds,
            report,
        )?;
        report.metric("setup_s", offline_median(|o| o.0 + o.1), "s");
        report.metric("latency_p50_ms", quantile(&closed.latency_ms, 0.5), "ms");
        report.metric("latency_p99_ms", quantile(&closed.latency_ms, 0.99), "ms");
        report.metric("throughput_qps", closed.latency_ms.len() as f64 / closed.wall_s, "1/s");
        report.metric("precision", closed.precision, "ratio");
        report.metric("peak_rss_mb", peak_rss_mb()?, "MiB");
        return Ok(());
    }

    let split = if args.trace {
        Some(query::split(&built, &params, &streams.split, report)?)
    } else {
        None
    };

    // Serve from a persisted copy of the index, so set-up covers the
    // persist write and read paths.
    let index =
        ClusterIndex::new(Arc::clone(&built.graph), Some(Arc::clone(&built.tnam)), params.clone())?
            .with_dataset(w.dataset);
    let scratch = setup::ScratchStore::create()?;
    let reps = if w.serve { SETUP_REPS } else { 1 };
    let (svc, persist) = setup::start_service(&scratch.store, &index, workers, reps)?;
    let requests = ((w.rate * args.seconds).ceil() as usize).min(streams.timed.len());
    let checks = if w.serve { SERVE_CHECKS } else { TRACE_CHECKS };
    let served =
        serve::measure(&svc, w.rate, &streams.warm, &streams.timed[..requests], checks, report);
    svc.shutdown();
    let scored = if w.serve { PRECISION_SEEDS } else { checks };
    let scored = stats::distinct_prefix(&streams.timed[..requests], scored);
    let precision = serve::verify(&built, &params, &scored, &served.kept, report)?;
    let late_p99_ms = quantile(&served.late_ms, 0.99);
    let gap_ms = 1e3 / w.rate;
    if late_p99_ms > LATE_LIMIT_GAPS * gap_ms {
        return Err(format!(
            "run invalid: the load generator's p99 lateness {late_p99_ms:.3} ms exceeds \
             {LATE_LIMIT_GAPS} inter-arrival gaps of {gap_ms:.3} ms"
        )
        .into());
    }

    let Some(split) = split else {
        let windows: Vec<&[f64]> =
            served.latency_ms.chunks(served.latency_ms.len().div_ceil(WINDOWS)).collect();
        let over_windows = |q| median(&windows.iter().map(|w| quantile(w, q)).collect::<Vec<_>>());
        report.metric("setup_s", persist.setup_s, "s");
        report.metric("latency_p50_ms", over_windows(0.5), "ms");
        report.metric("latency_p99_ms", over_windows(0.99), "ms");
        report.metric("throughput_qps", served.completed as f64 / served.wall_s, "1/s");
        report.metric("precision", precision, "ratio");
        report.metric("peak_rss_mb", peak_rss_mb()?, "MiB");
        return Ok(());
    };

    let queries = split.queries as f64;
    let traced_ns: f64 = split.step_ns.iter().sum();
    report.metric("graph.gen_s", offline_median(|o| o.0), "s");
    report.metric("tnam.build_s", offline_median(|o| o.1), "s");
    for (name, ns) in
        ["step1.ms", "step2.ms", "step3.ms", "finish.ms"].into_iter().zip(split.step_ns)
    {
        report.metric(name, ns / queries / 1e6, "ms");
    }
    report.metric("step1.pushes", split.step1_pushes / queries, "count");
    report.metric("step1.support", split.step1_support / queries, "count");
    report.metric("step1.useful_frac", ratio(split.step1_support, split.step1_touched), "ratio");
    report.metric("step3.pushes", split.step3_pushes / queries, "count");
    report.metric("step3.support", split.step3_support / queries, "count");
    report.metric("step3.useful_frac", ratio(split.step3_support, split.step3_touched), "ratio");
    report.metric("finish.kept_frac", ratio(split.kept, split.step3_support), "ratio");
    for (name, ns) in
        ["share.step1", "share.step2", "share.step3", "share.finish"].into_iter().zip(split.step_ns)
    {
        report.metric(name, ns / traced_ns, "ratio");
    }
    report.metric("trace.overhead_frac", traced_ns / split.untraced_ns - 1.0, "ratio");
    report.metric("persist.save_s", persist.save_s, "s");
    report.metric("persist.load_s", persist.load_s, "s");
    report.metric("persist.image_mb", persist.image_mb, "MiB");
    let d = &served.delta;
    let submitted = (d.cache_hits + d.cache_misses + d.coalesced) as f64;
    report.metric("service.submit_p50_us", median(&served.submit_us), "us");
    report.metric("service.hit_frac", ratio(d.cache_hits as f64, submitted), "ratio");
    report.metric("service.coalesced_frac", ratio(d.coalesced as f64, submitted), "ratio");
    report.metric("service.miss_frac", ratio(d.cache_misses as f64, submitted), "ratio");
    report.metric(
        "service.queue_wait_p99_ms",
        hist_quantile_ns(&d.queue_wait_hist, 0.99) / 1e6,
        "ms",
    );
    report.metric("service.compute_p50_ms", hist_quantile_ns(&d.compute_hist, 0.5) / 1e6, "ms");
    report.metric("loadgen.late_p99_ms", late_p99_ms, "ms");
    Ok(())
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = SERVICE_WORKERS.min(nproc);
    println!(
        "# workload {} seed {} seconds {} trace {} | nproc {nproc} RAYON_NUM_THREADS {} | \
         service workers {workers} rate {}/s",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into()),
        args.workload.rate,
    );
    let mut report = Report::default();
    match run(&args, workers, &mut report).and_then(|()| report.print()) {
        Ok(()) if report.failed == 0 => ExitCode::SUCCESS,
        Ok(()) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
