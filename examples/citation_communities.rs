//! Citation-network scenario (the paper's Cora/PubMed motivation): find a
//! paper's research community from one seed publication, and compare LACA
//! against the structure-only and attribute-only extremes.
//!
//! ```sh
//! cargo run --release --example citation_communities
//! ```

use laca::baselines::attr_sim::{AttrSimKind, SimAttr};
use laca::baselines::pr_nibble::PrNibble;
use laca::eval::metrics::{conductance, precision_at, wcss};
use laca::graph::datasets::cora_like;
use laca::prelude::*;

fn main() {
    let dataset = cora_like().generate("cora-like").expect("generation");
    println!(
        "cora-like citation graph: {} papers, {} citation links, {} vocabulary terms",
        dataset.graph.n(),
        dataset.graph.m(),
        dataset.attributes.dim()
    );

    let tnam =
        Tnam::build(&dataset.attributes, &TnamConfig::new(32, MetricFn::Cosine)).expect("TNAM");
    let laca_engine =
        Laca::new(&dataset.graph, Some(&tnam), LacaParams::new(1e-6)).expect("engine");
    let pr = PrNibble::new(&dataset.graph, 0.8, 1e-6);
    let sim = SimAttr::new(&dataset.attributes, AttrSimKind::Cosine).expect("simattr");

    let seeds: Vec<NodeId> = (0..20).map(|i| (i * 131) % dataset.graph.n() as u32).collect();
    let mut totals = [0.0f64; 3];
    println!("\n{:<8}{:>10}{:>12}{:>12}", "seed", "LACA", "PR-Nibble", "SimAttr");
    for &s in &seeds {
        let truth = dataset.ground_truth(s);
        let clusters = [
            laca_engine.cluster(s, truth.len()).expect("laca"),
            pr.cluster(s, truth.len()).expect("pr-nibble"),
            sim.cluster(s, truth.len()).expect("simattr"),
        ];
        let ps: Vec<f64> = clusters.iter().map(|c| precision_at(c, truth, truth.len())).collect();
        for (t, p) in totals.iter_mut().zip(&ps) {
            *t += p / seeds.len() as f64;
        }
        println!("{s:<8}{:>10.3}{:>12.3}{:>12.3}", ps[0], ps[1], ps[2]);
    }
    println!("{:<8}{:>10.3}{:>12.3}{:>12.3}", "mean", totals[0], totals[1], totals[2]);

    // Structure + attribute quality of one LACA cluster.
    let seed = seeds[0];
    let cluster = laca_engine.cluster(seed, dataset.ground_truth(seed).len()).unwrap();
    println!(
        "\nLACA cluster around paper {seed}: conductance {:.3}, attribute WCSS {:.3}",
        conductance(&dataset.graph, &cluster),
        wcss(&dataset.attributes, &cluster),
    );
    println!(
        "ground truth:                   conductance {:.3}, attribute WCSS {:.3}",
        conductance(&dataset.graph, dataset.ground_truth(seed)),
        wcss(&dataset.attributes, dataset.ground_truth(seed)),
    );
}
