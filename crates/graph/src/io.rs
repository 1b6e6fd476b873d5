//! Plain-text persistence for datasets.
//!
//! Three companion files per dataset, all line-oriented and buffered:
//!
//! * `<stem>.edges` — `u v` (or `u v w` when weighted) per line, `u < v`;
//!   first line `# nodes <n>`.
//! * `<stem>.attrs` — one row per node: `idx:value` pairs separated by
//!   spaces; first line `# dim <d>`.
//! * `<stem>.clusters` — one planted cluster per line, node ids separated
//!   by spaces.

use crate::{AttributeMatrix, AttributedDataset, CsrGraph, GraphError, NodeId};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Writes a graph to `<stem>.edges`.
pub fn write_graph(path: &Path, graph: &CsrGraph) -> Result<(), GraphError> {
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(out, "# nodes {}", graph.n())?;
    for u in 0..graph.n() as NodeId {
        for (v, w) in graph.edges_of(u) {
            if u < v {
                if graph.is_weighted() {
                    writeln!(out, "{u} {v} {w}")?;
                } else {
                    writeln!(out, "{u} {v}")?;
                }
            }
        }
    }
    out.flush()?;
    Ok(())
}

/// Reads a graph written by [`write_graph`].
pub fn read_graph(path: &Path) -> Result<CsrGraph, GraphError> {
    let reader = BufReader::new(File::open(path)?);
    let mut n: Option<usize> = None;
    let mut plain: Vec<(NodeId, NodeId)> = Vec::new();
    let mut weighted: Vec<(NodeId, NodeId, f64)> = Vec::new();
    for line in reader.lines() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let mut parts = rest.split_whitespace();
            if parts.next() == Some("nodes") {
                let parsed: usize = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| GraphError::Io("malformed '# nodes' header".into()))?;
                n = Some(parsed);
            }
            continue;
        }
        let mut parts = line.split_whitespace();
        let u: NodeId = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| GraphError::Io(format!("malformed edge line: {line}")))?;
        let v: NodeId = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| GraphError::Io(format!("malformed edge line: {line}")))?;
        match parts.next() {
            Some(ws) => {
                let w: f64 =
                    ws.parse().map_err(|_| GraphError::Io(format!("malformed weight: {line}")))?;
                weighted.push((u, v, w));
            }
            None => plain.push((u, v)),
        }
    }
    let n = n.ok_or_else(|| GraphError::Io("missing '# nodes' header".into()))?;
    if !weighted.is_empty() {
        if !plain.is_empty() {
            return Err(GraphError::Io("mixed weighted and unweighted edge lines".into()));
        }
        CsrGraph::from_weighted_edges(n, &weighted)
    } else {
        CsrGraph::from_edges(n, &plain)
    }
}

/// Writes attributes to `<stem>.attrs`.
pub fn write_attributes(path: &Path, attrs: &AttributeMatrix) -> Result<(), GraphError> {
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(out, "# dim {}", attrs.dim())?;
    for (idx, val) in attrs.rows() {
        let mut first = true;
        for (&j, &v) in idx.iter().zip(val) {
            if first {
                write!(out, "{j}:{v}")?;
                first = false;
            } else {
                write!(out, " {j}:{v}")?;
            }
        }
        writeln!(out)?;
    }
    out.flush()?;
    Ok(())
}

/// Reads attributes written by [`write_attributes`].
pub fn read_attributes(path: &Path) -> Result<AttributeMatrix, GraphError> {
    let reader = BufReader::new(File::open(path)?);
    let mut dim: Option<usize> = None;
    let mut rows: Vec<Vec<(u32, f64)>> = Vec::new();
    for line in reader.lines() {
        let line = line?;
        let trimmed = line.trim();
        if let Some(rest) = trimmed.strip_prefix('#') {
            let mut parts = rest.split_whitespace();
            if parts.next() == Some("dim") {
                let parsed: usize = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| GraphError::Io("malformed '# dim' header".into()))?;
                dim = Some(parsed);
            }
            continue;
        }
        let mut row = Vec::new();
        for tok in trimmed.split_whitespace() {
            let (j, v) = tok
                .split_once(':')
                .ok_or_else(|| GraphError::Io(format!("malformed attribute token: {tok}")))?;
            let j: u32 = j.parse().map_err(|_| GraphError::Io(format!("bad index: {tok}")))?;
            let v: f64 = v.parse().map_err(|_| GraphError::Io(format!("bad value: {tok}")))?;
            row.push((j, v));
        }
        rows.push(row);
    }
    let dim = dim.ok_or_else(|| GraphError::Io("missing '# dim' header".into()))?;
    AttributeMatrix::from_rows(dim, &rows)
}

/// Writes planted clusters to `<stem>.clusters`.
pub fn write_clusters(path: &Path, clusters: &[Vec<NodeId>]) -> Result<(), GraphError> {
    let mut out = BufWriter::new(File::create(path)?);
    for cluster in clusters {
        let mut first = true;
        for &v in cluster {
            if first {
                write!(out, "{v}")?;
                first = false;
            } else {
                write!(out, " {v}")?;
            }
        }
        writeln!(out)?;
    }
    out.flush()?;
    Ok(())
}

/// Reads clusters written by [`write_clusters`].
pub fn read_clusters(path: &Path) -> Result<Vec<Vec<NodeId>>, GraphError> {
    let reader = BufReader::new(File::open(path)?);
    let mut clusters = Vec::new();
    for line in reader.lines() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let cluster: Result<Vec<NodeId>, _> =
            trimmed.split_whitespace().map(|s| s.parse::<NodeId>()).collect();
        clusters.push(cluster.map_err(|e| GraphError::Io(format!("bad cluster line: {e}")))?);
    }
    Ok(clusters)
}

/// Saves a full dataset under `dir/<name>.{edges,attrs,clusters}`.
pub fn save_dataset(dir: &Path, ds: &AttributedDataset) -> Result<(), GraphError> {
    std::fs::create_dir_all(dir)?;
    write_graph(&dir.join(format!("{}.edges", ds.name)), &ds.graph)?;
    write_attributes(&dir.join(format!("{}.attrs", ds.name)), &ds.attributes)?;
    write_clusters(&dir.join(format!("{}.clusters", ds.name)), &ds.clusters)?;
    Ok(())
}

/// Loads a dataset saved by [`save_dataset`].
pub fn load_dataset(dir: &Path, name: &str) -> Result<AttributedDataset, GraphError> {
    let graph = read_graph(&dir.join(format!("{name}.edges")))?;
    let attributes = read_attributes(&dir.join(format!("{name}.attrs")))?;
    let clusters = read_clusters(&dir.join(format!("{name}.clusters")))?;
    if attributes.n() != graph.n() {
        return Err(GraphError::DimensionMismatch { expected: graph.n(), found: attributes.n() });
    }
    let mut membership = vec![u32::MAX; graph.n()];
    for (c, cluster) in clusters.iter().enumerate() {
        for &v in cluster {
            if v as usize >= graph.n() {
                return Err(GraphError::NodeOutOfRange { node: v, n: graph.n() });
            }
            membership[v as usize] = c as u32;
        }
    }
    if membership.contains(&u32::MAX) {
        return Err(GraphError::Io("clusters do not cover all nodes".into()));
    }
    Ok(AttributedDataset::new(name.to_string(), graph, attributes, membership, clusters))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{AttributeSpec, AttributedGraphSpec};

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("laca-io-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tiny_dataset() -> AttributedDataset {
        AttributedGraphSpec {
            n: 120,
            n_clusters: 3,
            avg_degree: 6.0,
            p_intra: 0.9,
            missing_intra: 0.0,
            degree_exponent: 0.0,
            cluster_size_skew: 0.0,
            attributes: Some(AttributeSpec {
                dim: 50,
                topic_words: 10,
                tokens_per_node: 12,
                attr_noise: 0.2,
            }),
            seed: 42,
        }
        .generate("tiny")
        .unwrap()
    }

    #[test]
    fn graph_round_trip() {
        let dir = tmpdir("graph");
        let ds = tiny_dataset();
        let path = dir.join("g.edges");
        write_graph(&path, &ds.graph).unwrap();
        let g2 = read_graph(&path).unwrap();
        assert_eq!(ds.graph, g2);
    }

    #[test]
    fn weighted_graph_round_trip() {
        let dir = tmpdir("wgraph");
        let g = CsrGraph::from_weighted_edges(3, &[(0, 1, 0.5), (1, 2, 2.25)]).unwrap();
        let path = dir.join("w.edges");
        write_graph(&path, &g).unwrap();
        let g2 = read_graph(&path).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn attributes_round_trip() {
        let dir = tmpdir("attrs");
        let ds = tiny_dataset();
        let path = dir.join("a.attrs");
        write_attributes(&path, &ds.attributes).unwrap();
        let a2 = read_attributes(&path).unwrap();
        assert_eq!(ds.attributes.n(), a2.n());
        assert_eq!(ds.attributes.dim(), a2.dim());
        for i in 0..ds.attributes.n() {
            let (i1, v1) = ds.attributes.row(i);
            let (i2, v2) = a2.row(i);
            assert_eq!(i1, i2);
            for (a, b) in v1.iter().zip(v2) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn full_dataset_round_trip() {
        let dir = tmpdir("full");
        let ds = tiny_dataset();
        save_dataset(&dir, &ds).unwrap();
        let ds2 = load_dataset(&dir, "tiny").unwrap();
        assert_eq!(ds.graph, ds2.graph);
        assert_eq!(ds.membership, ds2.membership);
        assert_eq!(ds.clusters, ds2.clusters);
    }

    #[test]
    fn read_graph_rejects_garbage() {
        let dir = tmpdir("bad");
        let path = dir.join("bad.edges");
        std::fs::write(&path, "1 2\n").unwrap();
        assert!(read_graph(&path).is_err(), "missing header must fail");
        std::fs::write(&path, "# nodes 3\nx y\n").unwrap();
        assert!(read_graph(&path).is_err());
    }

    #[test]
    fn read_graph_rejects_a_node_count_beyond_the_id_range() {
        let dir = tmpdir("huge");
        let path = dir.join("huge.edges");
        // Unweighted and weighted edge lines reach the two constructors.
        for edge in ["0 1", "0 1 0.5"] {
            std::fs::write(&path, format!("# nodes 18446744073709551615\n{edge}\n")).unwrap();
            assert_eq!(read_graph(&path), Err(GraphError::TooManyNodes { n: usize::MAX }));
        }
    }
}
