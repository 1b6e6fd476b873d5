//! Shared plumbing for the experiment binaries (one binary per paper table
//! or figure; each binary's module doc names the one it reproduces).
//!
//! Every binary accepts:
//!
//! * `--seeds N` — seed nodes per dataset (paper: 500; defaults here are
//!   smaller so the whole suite finishes on a laptop),
//! * `--scale X` — multiplier on the registry's default dataset scale
//!   factors (1.0 = [`laca_graph::datasets::default_scale`]),
//! * `--datasets a,b,c` — restrict to named datasets,
//! * `--out DIR` — also write CSVs (default `results/`).

use laca_eval::metrics::precision_at;
use laca_graph::datasets::{by_name, default_scale};
use laca_graph::{AttributedDataset, NodeId};
use std::path::PathBuf;

pub mod bench_json;

/// Parsed command-line options shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct ExpArgs {
    /// Seeds per dataset.
    pub seeds: usize,
    /// Multiplier applied to the default dataset scale factors.
    pub scale: f64,
    /// Dataset-name filter (empty = binary's default set).
    pub datasets: Vec<String>,
    /// CSV output directory.
    pub out_dir: PathBuf,
    /// Free-form parameter selector (e.g. `--param alpha`).
    pub param: Option<String>,
}

impl ExpArgs {
    /// Parses `std::env::args`, with a default seed count per binary.
    /// Malformed input — an unknown flag, a missing value, or a value that
    /// does not parse — prints the error and exits with status 2, so a run
    /// never measures something other than what was asked.
    pub fn parse(default_seeds: usize) -> ExpArgs {
        ExpArgs::parse_from(std::env::args().skip(1), default_seeds).unwrap_or_else(|err| {
            eprintln!("error: {err}");
            std::process::exit(2);
        })
    }

    /// Parses `args` (without the program name). The error names the
    /// offending flag.
    pub fn parse_from(
        args: impl IntoIterator<Item = String>,
        default_seeds: usize,
    ) -> Result<ExpArgs, String> {
        let mut out = ExpArgs {
            seeds: default_seeds,
            scale: 1.0,
            datasets: Vec::new(),
            out_dir: PathBuf::from("results"),
            param: None,
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--seeds" => out.seeds = parse_value(&flag, &value()?)?,
                "--scale" => {
                    let v = value()?;
                    out.scale = parse_value(&flag, &v)?;
                    if !(out.scale.is_finite() && out.scale > 0.0) {
                        return Err(format!("{flag} must be a positive number, got '{v}'"));
                    }
                }
                "--datasets" => {
                    out.datasets = value()?.split(',').map(|s| s.trim().to_string()).collect();
                }
                "--out" => out.out_dir = PathBuf::from(value()?),
                "--param" => out.param = Some(value()?),
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(out)
    }

    /// The dataset list to use: the CLI filter, or the given default.
    pub fn dataset_names(&self, default: &[&str]) -> Vec<String> {
        if self.datasets.is_empty() {
            default.iter().map(|s| s.to_string()).collect()
        } else {
            self.datasets.clone()
        }
    }
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("{flag}: cannot parse '{value}'"))
}

/// Generates a registry dataset at `default_scale × extra_scale` — or
/// loads it from the on-disk store named by `LACA_INDEX_STORE` when a
/// previous run already cached the identical spec (keyed by
/// [`laca_graph::gen::AttributedGraphSpec::fingerprint`], so any spec or
/// scale change regenerates). CI points every test/bench job at a shared
/// cached store directory; generation is bit-identical for any thread
/// count, so the cache is safely shared across matrix legs.
pub fn load_dataset(name: &str, extra_scale: f64) -> AttributedDataset {
    let scale = default_scale(name) * extra_scale;
    let spec = by_name(name, scale)
        .unwrap_or_else(|| panic!("unknown dataset '{name}' (see laca_graph::datasets)"));
    let t0 = std::time::Instant::now();
    let ds = laca_persist::cached_dataset(&spec, &format!("{name}-like"))
        .expect("dataset generation failed");
    let stats = ds.stats();
    eprintln!(
        "[gen] {name}: n={} m={} d={} |Ys|~{:.0} ({:.1}s)",
        stats.n,
        stats.m,
        stats.dim,
        stats.avg_cluster_size,
        t0.elapsed().as_secs_f64()
    );
    ds
}

/// Mean precision of `cluster` over `seeds`, scored as Table V scores it
/// (`precision_at(C, Y, |Y|)`, the [`laca_eval::harness::evaluate`]
/// definition): an answer shorter than `|Y|` is charged for the missing
/// slots. A query that errors is left out of the mean, never scored, and
/// the failures are printed under `label`. Returns `(mean, failures)`;
/// the mean is 0 when every query failed.
pub fn mean_precision<E: std::fmt::Display>(
    ds: &AttributedDataset,
    seeds: &[NodeId],
    label: &str,
    mut cluster: impl FnMut(NodeId, usize) -> Result<Vec<NodeId>, E>,
) -> (f64, usize) {
    let (mut sum, mut answered, mut first_error) = (0.0, 0usize, None);
    for &s in seeds {
        let truth = ds.ground_truth(s);
        match cluster(s, truth.len()) {
            Ok(c) => {
                sum += precision_at(&c, truth, truth.len());
                answered += 1;
            }
            Err(e) => {
                first_error.get_or_insert_with(|| e.to_string());
            }
        }
    }
    let failures = seeds.len() - answered;
    if let Some(e) = first_error {
        eprintln!("{label}: {failures} of {} queries failed, excluded (first: {e})", seeds.len());
    }
    (if answered == 0 { 0.0 } else { sum / answered as f64 }, failures)
}

/// Prints a section header in the experiment binaries' output.
pub fn banner(title: &str) {
    println!("\n==== {title} ====");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ExpArgs, String> {
        ExpArgs::parse_from(args.iter().map(|a| a.to_string()), 7)
    }

    #[test]
    fn accepts_the_smoke_script_arguments() {
        let args = parse(&[]).unwrap();
        assert_eq!((args.seeds, args.scale), (7, 1.0));
        assert_eq!(args.out_dir, PathBuf::from("results"));
        assert_eq!(args.param, None);
        let args = parse(&["--seeds", "2", "--scale", "0.02", "--datasets", "arxiv", "--out", "o"])
            .unwrap();
        assert_eq!(args.seeds, 2);
        assert_eq!(args.scale, 0.02);
        assert_eq!(args.datasets, ["arxiv"]);
        assert_eq!(args.out_dir, PathBuf::from("o"));
        let args = parse(&["--seeds", "1", "--out", "o"]).unwrap();
        assert_eq!((args.seeds, args.scale), (1, 1.0));
        assert!(args.datasets.is_empty());
    }

    #[test]
    fn bad_values_are_errors_naming_the_flag() {
        for (args, flag) in [
            (&["--seeds", "abc"][..], "--seeds"),
            (&["--scale", "x"][..], "--scale"),
            (&["--scale", "0"][..], "--scale"),
            (&["--scale", "NaN"][..], "--scale"),
            (&["--seeds", "-3"][..], "--seeds"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(flag), "{args:?}: {err}");
        }
    }

    #[test]
    fn unknown_flags_are_errors() {
        let err = parse(&["--sede", "4"]).unwrap_err();
        assert!(err.contains("--sede"), "{err}");
    }

    #[test]
    fn mean_precision_charges_short_answers_and_excludes_failures() {
        let ds = laca_graph::gen::AttributedGraphSpec {
            n: 60,
            n_clusters: 2,
            avg_degree: 4.0,
            p_intra: 0.9,
            missing_intra: 0.0,
            degree_exponent: 2.5,
            cluster_size_skew: 0.0,
            attributes: None,
            seed: 3,
        }
        .generate("mean-precision")
        .unwrap();
        let seeds = [0, 1, 2];
        // The seed alone is one hit out of |Y| slots, not a perfect 1.0.
        let (p, failed) = mean_precision(&ds, &seeds, "seed-only", |s, _| Ok::<_, String>(vec![s]));
        let want: f64 =
            seeds.iter().map(|&s| 1.0 / ds.ground_truth(s).len() as f64).sum::<f64>() / 3.0;
        assert_eq!((p, failed), (want, 0));
        // A failed query is counted, not scored as 0 or 1.
        let (p, failed) = mean_precision(&ds, &seeds, "one-fails", |s, size| {
            if s == 1 {
                Err("no answer".to_string())
            } else {
                Ok(ds.ground_truth(s)[..size].to_vec())
            }
        });
        assert_eq!((p, failed), (1.0, 1));
        let (p, failed) = mean_precision(&ds, &seeds, "all-fail", |_, _| {
            Err::<Vec<NodeId>, _>("no answer".to_string())
        });
        assert_eq!((p, failed), (0.0, 3));
    }

    #[test]
    fn missing_values_are_errors() {
        for flag in ["--seeds", "--scale", "--datasets", "--out", "--param"] {
            let err = parse(&["--seeds", "3", flag]).unwrap_err();
            assert!(err.contains(flag) && err.contains("needs a value"), "{err}");
        }
    }
}
