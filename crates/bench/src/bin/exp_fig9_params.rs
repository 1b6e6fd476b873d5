//! **Fig. 9**: parameter sensitivity of LACA (C) and LACA (E) — precision
//! when sweeping the restart factor `α` (a,b), the balance `σ` (c,d) and
//! the TNAM dimension `k` (e,f) on the five small/medium datasets.
//!
//! `cargo run --release -p laca-bench --bin exp_fig9_params -- --param alpha`
//! (`--param sigma`, `--param k`, or no `--param` for all three sweeps)

use laca_bench::{banner, load_dataset, mean_precision, ExpArgs};
use laca_core::{Laca, LacaParams, MetricFn, Tnam, TnamConfig};
use laca_eval::harness::sample_seeds;
use laca_eval::table::{fmt3, Table};
use laca_graph::AttributedDataset;

fn avg_precision(
    ds: &AttributedDataset,
    tnam: &Tnam,
    params: &LacaParams,
    seeds: &[laca_graph::NodeId],
    label: &str,
) -> f64 {
    let engine = Laca::new(&ds.graph, Some(tnam), params.clone()).unwrap();
    mean_precision(ds, seeds, label, |s, size| engine.cluster(s, size)).0
}

fn main() {
    let args = ExpArgs::parse(15);
    let names = args.dataset_names(&["cora", "pubmed", "blogcl", "flickr", "arxiv"]);
    let sweeps: Vec<&str> = match args.param.as_deref() {
        Some(p) => vec![match p {
            "alpha" => "alpha",
            "sigma" => "sigma",
            "k" => "k",
            other => panic!("unknown --param {other} (alpha|sigma|k)"),
        }],
        None => vec!["alpha", "sigma", "k"],
    };
    let metrics = [("C", MetricFn::Cosine), ("E", MetricFn::ExpCosine { delta: 1.0 })];

    for sweep in sweeps {
        for (mlabel, metric) in metrics {
            let mut headers = vec![sweep.to_string()];
            headers.extend(names.iter().cloned());
            let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
            let mut table = Table::new(&header_refs);
            // value grid per sweep
            let values: Vec<f64> = match sweep {
                "alpha" => (0..10).map(|i| i as f64 / 10.0).collect(),
                "sigma" => (0..=10).map(|i| i as f64 / 10.0).collect(),
                _ => vec![8.0, 16.0, 32.0, 64.0, 128.0, -1.0], // -1 = d
            };
            let mut rows: Vec<Vec<String>> = values
                .iter()
                .map(|&v| {
                    vec![if v < 0.0 {
                        "d".to_string()
                    } else if sweep == "k" {
                        format!("{v:.0}")
                    } else {
                        format!("{v:.1}")
                    }]
                })
                .collect();
            for name in &names {
                let ds = load_dataset(name, args.scale);
                let seeds = sample_seeds(&ds, args.seeds, 0xF19);
                match sweep {
                    "k" => {
                        for (ri, &v) in values.iter().enumerate() {
                            let k = if v < 0.0 { ds.attributes.dim() } else { v as usize };
                            let tnam =
                                Tnam::build(&ds.attributes, &TnamConfig::new(k, metric)).unwrap();
                            let label = format!("[{name}] {mlabel} k={k}");
                            let params = LacaParams::new(1e-7);
                            let p = avg_precision(&ds, &tnam, &params, &seeds, &label);
                            rows[ri].push(fmt3(p));
                            eprintln!("{label}: {p:.3}");
                        }
                    }
                    _ => {
                        let tnam =
                            Tnam::build(&ds.attributes, &TnamConfig::new(32, metric)).unwrap();
                        for (ri, &v) in values.iter().enumerate() {
                            let params = match sweep {
                                "alpha" => LacaParams::new(1e-7).with_alpha(v.max(0.01)),
                                _ => LacaParams::new(1e-7).with_sigma(v),
                            };
                            let label = format!("[{name}] {mlabel} {sweep}={v:.1}");
                            let p = avg_precision(&ds, &tnam, &params, &seeds, &label);
                            rows[ri].push(fmt3(p));
                            eprintln!("{label}: {p:.3}");
                        }
                    }
                }
            }
            for row in rows {
                table.add_row(row);
            }
            banner(&format!("Fig. 9 analogue: precision vs {sweep} in LACA ({mlabel})"));
            println!("{}", table.render());
            table
                .write_csv(&args.out_dir.join(format!("fig9_{sweep}_laca_{mlabel}.csv")))
                .expect("write csv");
        }
    }
}
