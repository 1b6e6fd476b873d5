//! The offline phase: dataset generation, the TNAM build, and the persist
//! round trip that starts a service.

use crate::{Res, Workload, TNAM_K};
use laca_core::{MetricFn, Tnam, TnamConfig};
use laca_graph::{datasets, AttributedDataset, CsrGraph, NodeId};
use laca_persist::IndexStore;
use laca_service::{ClusterIndex, QueryService, ServiceConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// A generated graph with its TNAM and planted ground truth.
pub struct Built {
    pub graph: Arc<CsrGraph>,
    pub tnam: Arc<Tnam>,
    membership: Vec<u32>,
    cluster_len: Vec<usize>,
    pub gen_s: f64,
    pub build_s: f64,
}

/// Generates the workload's dataset straight from the registry spec (no
/// on-disk dataset cache, whatever the environment says) and builds its
/// TNAM, timing both.
pub fn build(w: &Workload) -> Res<Built> {
    let spec = datasets::by_name(w.dataset, datasets::default_scale(w.dataset))
        .ok_or_else(|| format!("unknown dataset {}", w.dataset))?;
    let t0 = Instant::now();
    let ds = spec.generate(w.dataset)?;
    let gen_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let tnam = Tnam::build(&ds.attributes, &TnamConfig::new(TNAM_K, MetricFn::Cosine))?;
    let build_s = t1.elapsed().as_secs_f64();
    let AttributedDataset { graph, membership, clusters, .. } = ds;
    Ok(Built {
        graph: Arc::new(graph),
        tnam: Arc::new(tnam),
        membership,
        cluster_len: clusters.iter().map(Vec::len).collect(),
        gen_s,
        build_s,
    })
}

impl Built {
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// `|Ys|`: the size of the planted cluster holding `seed`.
    pub fn truth_len(&self, seed: NodeId) -> usize {
        self.cluster_len[self.membership[seed as usize] as usize]
    }

    /// `|C ∩ Ys| / |C|`: the share of the cluster inside the seed's
    /// planted cluster.
    pub fn precision(&self, seed: NodeId, cluster: &[NodeId]) -> f64 {
        let own = self.membership[seed as usize];
        let hits = cluster.iter().filter(|&&v| self.membership[v as usize] == own).count();
        hits as f64 / cluster.len() as f64
    }
}

/// An [`IndexStore`] in a directory of the working directory that this
/// process owns, removed on drop.
pub struct ScratchStore {
    dir: PathBuf,
    pub store: IndexStore,
}

impl ScratchStore {
    pub fn create() -> Res<Self> {
        let dir = std::env::current_dir()?.join(format!(".perfbench-store-{}", std::process::id()));
        let store = IndexStore::open(&dir)?;
        Ok(ScratchStore { dir, store })
    }
}

impl Drop for ScratchStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Medians over the service set-ups of one run.
pub struct Persist {
    pub save_s: f64,
    pub load_s: f64,
    /// Save, load and `QueryService::start`: until the first query can
    /// be answered.
    pub setup_s: f64,
    pub image_mb: f64,
}

/// Saves `index`, loads it back and starts a service on the loaded copy,
/// `reps` times; returns the last service and the median timings.
pub fn start_service(
    store: &IndexStore,
    index: &ClusterIndex,
    workers: usize,
    reps: usize,
) -> Res<(QueryService, Persist)> {
    let (mut save, mut load, mut total) = (Vec::new(), Vec::new(), Vec::new());
    let mut service: Option<QueryService> = None;
    let mut image_bytes = 0;
    for _ in 0..reps {
        if let Some(old) = service.take() {
            old.shutdown();
        }
        let t0 = Instant::now();
        let path = store.save(index)?;
        let t1 = Instant::now();
        let loaded = store.load(index.dataset(), index.fingerprint())?;
        let t2 = Instant::now();
        service = Some(QueryService::start(loaded, ServiceConfig::default().with_workers(workers)));
        let t3 = Instant::now();
        save.push((t1 - t0).as_secs_f64());
        load.push((t2 - t1).as_secs_f64());
        total.push((t3 - t0).as_secs_f64());
        image_bytes = std::fs::metadata(&path)?.len();
    }
    let service = service.ok_or("no service set-up ran")?;
    let persist = Persist {
        save_s: crate::stats::median(&save),
        load_s: crate::stats::median(&load),
        setup_s: crate::stats::median(&total),
        image_mb: image_bytes as f64 / (1024.0 * 1024.0),
    };
    Ok((service, persist))
}
