//! **Table XI**: alternative similarity measures inside LACA — the
//! brute-force Jaccard and Pearson SNAS against the cosine /
//! exponential-cosine SNAS. Like the paper, the quadratic-cost
//! alternatives run only on the small datasets.
//!
//! `cargo run --release -p laca-bench --bin exp_table11_similarity -- --seeds 10`

use laca_bench::{banner, load_dataset, mean_precision, ExpArgs};
use laca_core::extract::top_k_cluster;
use laca_core::snas::AltMetricFn;
use laca_core::variants::{alt_snas_bdd, AltSnasOracle};
use laca_core::{Laca, LacaParams, MetricFn, Tnam, TnamConfig};
use laca_eval::harness::sample_seeds;
use laca_eval::table::{fmt3, Table};

fn main() {
    let args = ExpArgs::parse(10);
    // Quadratic denominators: small datasets only, like the paper.
    let names = args.dataset_names(&["cora", "blogcl", "flickr"]);
    let mut headers = vec!["Method".to_string()];
    headers.extend(names.iter().cloned());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);
    let mut rows = vec![
        vec!["LACA(C)".to_string()],
        vec!["LACA(E)".to_string()],
        vec!["LACA(Jaccard)".to_string()],
        vec!["LACA(Pearson)".to_string()],
    ];

    for name in &names {
        let ds = load_dataset(name, args.scale);
        let seeds = sample_seeds(&ds, args.seeds, 0x7ABB);
        let params = LacaParams::new(1e-7);
        // LACA (C) and (E).
        for (row, metric) in [(0usize, MetricFn::Cosine), (1, MetricFn::ExpCosine { delta: 1.0 })] {
            let tnam = Tnam::build(&ds.attributes, &TnamConfig::new(32, metric)).unwrap();
            let engine = Laca::new(&ds.graph, Some(&tnam), params.clone()).unwrap();
            let label = format!("[{name}] {}", rows[row][0]);
            let (p, _) = mean_precision(&ds, &seeds, &label, |s, size| engine.cluster(s, size));
            rows[row].push(fmt3(p));
        }
        // Brute-force alternatives.
        for (row, metric) in [(2usize, AltMetricFn::Jaccard), (3, AltMetricFn::Pearson)] {
            let t0 = std::time::Instant::now();
            let oracle = AltSnasOracle::new(&ds.attributes, metric).unwrap();
            eprintln!("[{name}] {metric:?} denominators in {:?}", t0.elapsed());
            let label = format!("[{name}] {}", rows[row][0]);
            let (p, _) = mean_precision(&ds, &seeds, &label, |s, size| {
                alt_snas_bdd(&ds.graph, &oracle, s, &params).map(|rho| top_k_cluster(&rho, s, size))
            });
            rows[row].push(fmt3(p));
        }
        eprintln!("[{name}] done");
    }
    for row in rows {
        table.add_row(row);
    }
    banner("Table XI analogue: alternative similarity measures inside LACA");
    println!("{}", table.render());
    table.write_csv(&args.out_dir.join("table11_similarity.csv")).expect("write csv");
}
