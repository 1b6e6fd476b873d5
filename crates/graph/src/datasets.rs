//! Registry of named dataset configurations mirroring the paper's corpora.
//!
//! Table III of the paper lists 8 attributed graphs and Table VIII lists 3
//! non-attributed SNAP graphs. None are redistributable/reachable offline,
//! so each entry here is a [`crate::gen::AttributedGraphSpec`] whose statistics
//! (`n`, `m/n`, `d`, average ground-truth cluster size `|Ys|`) match the
//! paper's, and whose *noise regime* matches the paper's qualitative
//! description (ground-truth conductance in Table VII, which methods do
//! well in Table V). The three largest graphs are scaled down by a
//! `scale` factor (the experiment binaries' defaults are in
//! [`default_scale`]) so the full benchmark suite completes on a laptop.

use crate::gen::{AttributeSpec, AttributedGraphSpec};
use crate::{AttributeMatrix, CsrGraph, NodeId};

/// A generated dataset: graph + attributes + planted ground truth.
#[derive(Debug, Clone)]
pub struct AttributedDataset {
    /// Human-readable name, e.g. `"cora-like"`.
    pub name: String,
    /// The graph topology.
    pub graph: CsrGraph,
    /// Node attributes (empty for non-attributed datasets).
    pub attributes: AttributeMatrix,
    /// Planted cluster id per node.
    pub membership: Vec<u32>,
    /// Planted clusters (ground-truth local cluster of each member).
    pub clusters: Vec<Vec<NodeId>>,
}

impl AttributedDataset {
    /// Assembles a dataset (used by the generator and by tests).
    pub fn new(
        name: String,
        graph: CsrGraph,
        attributes: AttributeMatrix,
        membership: Vec<u32>,
        clusters: Vec<Vec<NodeId>>,
    ) -> Self {
        AttributedDataset { name, graph, attributes, membership, clusters }
    }

    /// Ground-truth local cluster `Y_s` of a seed node: the planted cluster
    /// containing it.
    pub fn ground_truth(&self, seed: NodeId) -> &[NodeId] {
        &self.clusters[self.membership[seed as usize] as usize]
    }

    /// `true` when the dataset carries informative attributes.
    pub fn is_attributed(&self) -> bool {
        !self.attributes.is_empty()
    }

    /// Summary statistics (for table headers and sanity checks).
    pub fn stats(&self) -> DatasetStats {
        let n = self.graph.n();
        let m = self.graph.m();
        let avg_cluster: f64 = if self.clusters.is_empty() {
            0.0
        } else {
            // Average over *nodes* (as the paper's |Ys| is the mean
            // ground-truth cluster size over all seeds).
            self.clusters.iter().map(|c| (c.len() * c.len()) as f64).sum::<f64>() / n as f64
        };
        DatasetStats {
            name: self.name.clone(),
            n,
            m,
            avg_degree: 2.0 * m as f64 / n as f64,
            dim: self.attributes.dim(),
            avg_cluster_size: avg_cluster,
        }
    }
}

/// Summary statistics of a dataset (the columns of Table III).
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    pub name: String,
    pub n: usize,
    pub m: usize,
    pub avg_degree: f64,
    pub dim: usize,
    /// Seed-averaged ground-truth cluster size (the paper's `|Ys|`).
    pub avg_cluster_size: f64,
}

fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale).round() as usize).max(64)
}

/// Cora-like citation network: small, sparse, clean communities, very
/// high-dimensional bag-of-words attributes (paper: n=2 708, m/n=2.01,
/// d=1 433, |Ys|=488, ground-truth conductance 0.188).
pub fn cora_like() -> AttributedGraphSpec {
    AttributedGraphSpec {
        n: 2708,
        n_clusters: 6,
        avg_degree: 4.0,
        p_intra: 0.78,
        missing_intra: 0.12,
        degree_exponent: 2.6,
        cluster_size_skew: 0.25,
        attributes: Some(AttributeSpec {
            dim: 1433,
            topic_words: 60,
            tokens_per_node: 18,
            attr_noise: 0.62,
        }),
        seed: 0xC04A,
    }
}

/// PubMed-like citation network (paper: n=19 717, m/n=2.25, d=500,
/// |Ys|=7 026, conductance 0.204).
pub fn pubmed_like() -> AttributedGraphSpec {
    AttributedGraphSpec {
        n: 19717,
        n_clusters: 3,
        avg_degree: 4.5,
        p_intra: 0.78,
        missing_intra: 0.12,
        degree_exponent: 2.6,
        cluster_size_skew: 0.15,
        attributes: Some(AttributeSpec {
            dim: 500,
            topic_words: 40,
            tokens_per_node: 20,
            attr_noise: 0.62,
        }),
        seed: 0x9B3D,
    }
}

/// BlogCatalog-like social network: dense, noisy structure, noisy
/// high-dimensional attributes (paper: n=5 196, m/n=66.11, d=8 189,
/// |Ys|=869, conductance 0.608).
pub fn blogcl_like() -> AttributedGraphSpec {
    AttributedGraphSpec {
        n: 5196,
        n_clusters: 6,
        avg_degree: 132.0,
        p_intra: 0.48,
        missing_intra: 0.12,
        degree_exponent: 2.2,
        cluster_size_skew: 0.2,
        attributes: Some(AttributeSpec {
            dim: 8189,
            topic_words: 180,
            tokens_per_node: 24,
            attr_noise: 0.65,
        }),
        seed: 0xB70C,
    }
}

/// Flickr-like social network: the paper's noisiest structure
/// (conductance 0.765) — structure-only methods collapse here while
/// attribute-aware ones survive (paper: n=7 575, m/n=63.30, d=12 047,
/// |Ys|=846).
pub fn flickr_like() -> AttributedGraphSpec {
    AttributedGraphSpec {
        n: 7575,
        n_clusters: 9,
        avg_degree: 126.6,
        p_intra: 0.30,
        missing_intra: 0.18,
        degree_exponent: 2.1,
        cluster_size_skew: 0.15,
        attributes: Some(AttributeSpec {
            dim: 12047,
            topic_words: 160,
            tokens_per_node: 20,
            attr_noise: 0.68,
        }),
        seed: 0xF11C,
    }
}

/// ArXiv-like citation network, scaled (paper: n=169 343, m/n=6.89, d=128,
/// |Ys|=12 828, conductance 0.408). `scale = 1.0` reproduces the paper's
/// size; the experiment defaults use 0.25.
pub fn arxiv_like(scale: f64) -> AttributedGraphSpec {
    let n = scaled(169_343, scale);
    AttributedGraphSpec {
        n,
        n_clusters: 13,
        avg_degree: 13.8,
        p_intra: 0.66,
        missing_intra: 0.1,
        degree_exponent: 2.4,
        cluster_size_skew: 0.3,
        attributes: Some(AttributeSpec {
            dim: 128,
            topic_words: 20,
            tokens_per_node: 20,
            attr_noise: 0.6,
        }),
        seed: 0xA3C1,
    }
}

/// Yelp-like friendship network, scaled (paper: n=716 847, m/n=10.23,
/// d=300, |Ys|=476 555). The paper's key observation: ground-truth
/// clusters here are driven by attributes, not structure (conductance
/// 0.649; SimAttr wins, pure-LGC methods score ≈0.2), and clusters are
/// huge (≈2/3 of the graph on average), so we plant two dominant
/// attribute-coherent clusters with weak structural signal.
pub fn yelp_like(scale: f64) -> AttributedGraphSpec {
    let n = scaled(716_847, scale);
    AttributedGraphSpec {
        n,
        n_clusters: 2,
        avg_degree: 20.5,
        p_intra: 0.25,
        missing_intra: 0.3,
        degree_exponent: 2.3,
        cluster_size_skew: 0.6,
        attributes: Some(AttributeSpec {
            dim: 300,
            topic_words: 40,
            tokens_per_node: 30,
            attr_noise: 0.35,
        }),
        seed: 0x7E1F,
    }
}

/// Reddit-like post network, scaled (paper: n=232 965, m/n=49.82, d=602,
/// |Ys|=9 418, conductance 0.226): dense and structurally clean — both
/// structure and attribute methods do well, diffusion methods especially.
/// Unlike the other entries, `avg_degree` is the paper's `m/n` rather than
/// `2·m/n`: half the paper's density.
pub fn reddit_like(scale: f64) -> AttributedGraphSpec {
    let n = scaled(232_965, scale);
    AttributedGraphSpec {
        n,
        n_clusters: 24,
        avg_degree: 49.8, // half the paper's density (see the doc above)
        p_intra: 0.82,
        missing_intra: 0.06,
        degree_exponent: 2.3,
        cluster_size_skew: 0.25,
        attributes: Some(AttributeSpec {
            dim: 602,
            topic_words: 35,
            tokens_per_node: 22,
            attr_noise: 0.55,
        }),
        seed: 0x9EDD,
    }
}

/// Amazon2M-like co-purchase network, scaled (paper: n=2 449 029,
/// m/n=25.26, d=100, |Ys|=260 129, conductance 0.173): the paper's
/// largest graph; structure fairly clean, attributes low-dimensional.
pub fn amazon2m_like(scale: f64) -> AttributedGraphSpec {
    let n = scaled(2_449_029, scale);
    AttributedGraphSpec {
        n,
        n_clusters: 9,
        avg_degree: 25.3,
        p_intra: 0.74,
        missing_intra: 0.1,
        degree_exponent: 2.4,
        cluster_size_skew: 0.3,
        attributes: Some(AttributeSpec {
            dim: 100,
            topic_words: 16,
            tokens_per_node: 18,
            attr_noise: 0.55,
        }),
        seed: 0xA2A2,
    }
}

/// com-DBLP-like co-authorship network (Table VIII: n=317 080,
/// m/n=3.31, |Ys|=1 862), non-attributed, scaled.
pub fn com_dblp_like(scale: f64) -> AttributedGraphSpec {
    let n = scaled(317_080, scale);
    AttributedGraphSpec {
        n,
        n_clusters: 17,
        avg_degree: 6.6,
        p_intra: 0.82,
        missing_intra: 0.05,
        degree_exponent: 2.5,
        cluster_size_skew: 0.3,
        attributes: None,
        seed: 0xDB19,
    }
}

/// com-Amazon-like co-purchase network (Table VIII: n=334 863,
/// m/n=2.76, |Ys|=47 — many small, clean communities), non-attributed,
/// scaled.
pub fn com_amazon_like(scale: f64) -> AttributedGraphSpec {
    let n = scaled(334_863, scale);
    AttributedGraphSpec {
        n,
        n_clusters: (n / 55).max(2),
        avg_degree: 5.5,
        p_intra: 0.9,
        missing_intra: 0.03,
        degree_exponent: 2.6,
        cluster_size_skew: 0.1,
        attributes: None,
        seed: 0xCA3A,
    }
}

/// com-Orkut-like social network (Table VIII: n=3 072 441, m/n=38.1,
/// |Ys|=621 — dense, noisy communities), non-attributed, scaled.
pub fn com_orkut_like(scale: f64) -> AttributedGraphSpec {
    let n = scaled(3_072_441, scale);
    AttributedGraphSpec {
        n,
        n_clusters: (n / 650).max(2),
        avg_degree: 76.0,
        p_intra: 0.45,
        missing_intra: 0.1,
        degree_exponent: 2.2,
        cluster_size_skew: 0.2,
        attributes: None,
        seed: 0x0127,
    }
}

/// AMiner-like co-authorship graph for the Fig. 8 case study: small,
/// clean collaboration communities with keyword-bag research interests.
pub fn aminer_like() -> AttributedGraphSpec {
    AttributedGraphSpec {
        n: 2000,
        n_clusters: 20,
        avg_degree: 8.0,
        p_intra: 0.8,
        missing_intra: 0.05,
        degree_exponent: 2.8,
        cluster_size_skew: 0.2,
        attributes: Some(AttributeSpec {
            dim: 500,
            topic_words: 25,
            tokens_per_node: 20,
            attr_noise: 0.25,
        }),
        seed: 0xA1AE,
    }
}

/// Looks a spec up by (paper) dataset name. Scale applies only to the
/// large graphs; small ones are always generated at full size.
pub fn by_name(name: &str, scale: f64) -> Option<AttributedGraphSpec> {
    let spec = match name.to_ascii_lowercase().as_str() {
        "cora" | "cora-like" => cora_like(),
        "pubmed" | "pubmed-like" => pubmed_like(),
        "blogcl" | "blogcl-like" | "blogcatalog" => blogcl_like(),
        "flickr" | "flickr-like" => flickr_like(),
        "arxiv" | "arxiv-like" => arxiv_like(scale),
        "yelp" | "yelp-like" => yelp_like(scale),
        "reddit" | "reddit-like" => reddit_like(scale),
        "amazon2m" | "amazon2m-like" => amazon2m_like(scale),
        "com-dblp" | "dblp" => com_dblp_like(scale),
        "com-amazon" | "amazon" => com_amazon_like(scale),
        "com-orkut" | "orkut" => com_orkut_like(scale),
        "aminer" | "aminer-like" => aminer_like(),
        _ => return None,
    };
    Some(spec)
}

/// Canonical names of the 8 attributed datasets, in the paper's order.
pub const ATTRIBUTED_NAMES: [&str; 8] =
    ["cora", "pubmed", "blogcl", "flickr", "arxiv", "yelp", "reddit", "amazon2m"];

/// Canonical names of the 3 non-attributed datasets (Table VIII).
pub const NON_ATTRIBUTED_NAMES: [&str; 3] = ["com-dblp", "com-amazon", "com-orkut"];

/// Default scale factors used by the experiment binaries for the large
/// graphs (small graphs are full-size). Each entry's doc gives the paper's
/// full-size statistics the factor scales down.
pub fn default_scale(name: &str) -> f64 {
    match name.to_ascii_lowercase().as_str() {
        "arxiv" | "arxiv-like" => 0.25,
        "yelp" | "yelp-like" => 0.10,
        "reddit" | "reddit-like" => 0.20,
        "amazon2m" | "amazon2m-like" => 0.05,
        "com-dblp" | "dblp" => 0.10,
        "com-amazon" | "amazon" => 0.10,
        "com-orkut" | "orkut" => 0.02,
        _ => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_resolves_all_names() {
        for name in ATTRIBUTED_NAMES.iter().chain(NON_ATTRIBUTED_NAMES.iter()) {
            assert!(by_name(name, 0.05).is_some(), "missing {name}");
        }
        assert!(by_name("nonexistent", 1.0).is_none());
    }

    #[test]
    fn cora_like_matches_paper_statistics() {
        let ds = cora_like().generate("cora").unwrap();
        let stats = ds.stats();
        assert_eq!(stats.n, 2708);
        assert!((stats.avg_degree - 4.0).abs() < 1.0, "avg degree {}", stats.avg_degree);
        assert_eq!(stats.dim, 1433);
        // |Ys| in the paper is 488; allow generous tolerance for the
        // synthetic analogue.
        assert!(
            stats.avg_cluster_size > 300.0 && stats.avg_cluster_size < 800.0,
            "|Ys| {}",
            stats.avg_cluster_size
        );
    }

    #[test]
    fn flickr_like_is_structurally_noisier_than_cora_like() {
        let cora = cora_like().generate("cora").unwrap();
        let flickr = {
            let mut spec = flickr_like();
            spec.n = 1500; // shrink for test speed; regime is what matters
            spec.avg_degree = 40.0;
            spec.generate("flickr").unwrap()
        };
        let cond = |ds: &AttributedDataset| {
            let c = &ds.clusters[0];
            ds.graph.conductance(c)
        };
        assert!(
            cond(&flickr) > cond(&cora) + 0.15,
            "flickr {} cora {}",
            cond(&flickr),
            cond(&cora)
        );
    }

    #[test]
    fn ground_truth_contains_seed() {
        let ds = cora_like().generate("cora").unwrap();
        for seed in [0u32, 17, 1000, 2707] {
            assert!(ds.ground_truth(seed).contains(&seed));
        }
    }

    #[test]
    fn non_attributed_specs_have_no_attributes() {
        let ds = com_dblp_like(0.02).generate("dblp").unwrap();
        assert!(!ds.is_attributed());
        assert!(ds.graph.is_connected());
    }

    #[test]
    fn default_scales_are_sane() {
        assert_eq!(default_scale("cora"), 1.0);
        assert!(default_scale("amazon2m") < 0.2);
    }
}
