//! **Table X**: the alternative BDD estimators (RS-RS-RS, R-RS-RS,
//! RS-R-RS, RS-RS-R) against LACA's BDD — precision on the attributed
//! analogues. Expectation: every alternative degrades substantially
//! (over-incorporating attribute transitions biases the walks off the
//! local cluster).
//!
//! `cargo run --release -p laca-bench --bin exp_table10_bdd_variants -- --seeds 15`

use laca_bench::{banner, load_dataset, mean_precision, ExpArgs};
use laca_core::extract::top_k_cluster;
use laca_core::variants::{bdd_variant_score, snas_reweighted_graph, BddVariant};
use laca_core::{Laca, LacaParams, MetricFn, Tnam, TnamConfig};
use laca_eval::harness::sample_seeds;
use laca_eval::table::{fmt3, Table};
use laca_graph::datasets::ATTRIBUTED_NAMES;

fn main() {
    let args = ExpArgs::parse(15);
    let names = args.dataset_names(&ATTRIBUTED_NAMES);
    let metrics = [("C", MetricFn::Cosine), ("E", MetricFn::ExpCosine { delta: 1.0 })];
    let mut headers = vec!["Method".to_string()];
    headers.extend(names.iter().cloned());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (mlabel, _) in metrics {
        rows.push(vec![format!("LACA({mlabel})")]);
        for variant in BddVariant::ALL {
            rows.push(vec![format!("LACA({mlabel})-{}", variant.label())]);
        }
    }

    for name in &names {
        let ds = load_dataset(name, args.scale);
        let seeds = sample_seeds(&ds, args.seeds, 0x7ABA);
        let params = LacaParams::new(1e-7);
        let mut row_idx = 0;
        for (mlabel, metric) in metrics {
            let tnam = Tnam::build(&ds.attributes, &TnamConfig::new(32, metric)).unwrap();
            let reweighted = snas_reweighted_graph(&ds.graph, &tnam, 1e-9);
            // LACA row.
            let engine = Laca::new(&ds.graph, Some(&tnam), params.clone()).unwrap();
            let label = format!("[{name}] LACA({mlabel})");
            let (p, _) = mean_precision(&ds, &seeds, &label, |s, size| engine.cluster(s, size));
            eprintln!("{label}: {p:.3}");
            rows[row_idx].push(fmt3(p));
            row_idx += 1;
            // Variant rows.
            for variant in BddVariant::ALL {
                let label = format!("[{name}] LACA({mlabel})-{}", variant.label());
                let (p, _) = mean_precision(&ds, &seeds, &label, |s, size| {
                    bdd_variant_score(&ds.graph, &reweighted, variant, s, &params)
                        .map(|rho| top_k_cluster(&rho, s, size))
                });
                eprintln!("{label}: {p:.3}");
                rows[row_idx].push(fmt3(p));
                row_idx += 1;
            }
        }
    }
    for row in rows {
        table.add_row(row);
    }
    banner("Table X analogue: alternative BDD estimators (precision)");
    println!("{}", table.render());
    table.write_csv(&args.out_dir.join("table10_bdd_variants.csv")).expect("write csv");
}
