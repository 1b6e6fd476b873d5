//! **Table VI**: ablation study — best precision of LACA (C) and LACA (E)
//! after removing the k-SVD, AdaptiveDiffuse, or the SNAS.
//!
//! `cargo run --release -p laca-bench --bin exp_table6_ablation -- --seeds 20`

use laca_bench::{banner, load_dataset, mean_precision, ExpArgs};
use laca_core::variants::{variant_cluster, LacaVariant};
use laca_core::{LacaParams, MetricFn, TnamConfig};
use laca_eval::harness::sample_seeds;
use laca_eval::table::{fmt3, Table};
use laca_graph::datasets::ATTRIBUTED_NAMES;

fn main() {
    let args = ExpArgs::parse(20);
    let names = args.dataset_names(&ATTRIBUTED_NAMES);
    let metrics = [("C", MetricFn::Cosine), ("E", MetricFn::ExpCosine { delta: 1.0 })];
    let mut headers = vec!["Method".to_string()];
    headers.extend(names.iter().cloned());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (mlabel, _) in metrics {
        rows.push(vec![format!("LACA({mlabel})")]);
        for variant in &LacaVariant::ALL[1..] {
            rows.push(vec![format!("  {}", variant.label())]);
        }
    }
    for name in &names {
        let ds = load_dataset(name, args.scale);
        let seeds = sample_seeds(&ds, args.seeds, 0x7AB6);
        let params = LacaParams::new(1e-7);
        let mut row_idx = 0;
        for (mlabel, metric) in metrics {
            let base_cfg = TnamConfig::new(32, metric);
            for variant in LacaVariant::ALL {
                let tnam = variant.build_tnam(&ds.attributes, &base_cfg).unwrap();
                let label = format!("[{name}] LACA({mlabel}) {}", variant.label());
                let (p, _) = mean_precision(&ds, &seeds, &label, |s, size| {
                    variant_cluster(&ds.graph, tnam.as_ref(), variant, &params, s, size)
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
    banner("Table VI analogue: ablation study (precision)");
    println!("{}", table.render());
    table.write_csv(&args.out_dir.join("table6_ablation.csv")).expect("write csv");
}
