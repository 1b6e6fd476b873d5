//! The corruption matrix the `persist` CI job runs: every way a file can
//! be malformed — truncation at every structural boundary, a flipped
//! byte in every section, wrong magic, a future format version, a
//! scrambled layout probe, cross-section inconsistencies — must come
//! back as a **typed** [`PersistError`], never a panic and never a
//! wrong answer.

use laca_core::tnam::TnamConfig;
use laca_core::{LacaParams, MetricFn};
use laca_graph::gen::{AttributeSpec, AttributedGraphSpec};
use laca_graph::{AttributedDataset, CsrGraph};
use laca_persist::{
    read_dataset_bytes, read_index_bytes, write_dataset_bytes, write_index_bytes, PersistError,
    FORMAT_VERSION, MAGIC,
};
use laca_service::ClusterIndex;
use std::sync::OnceLock;

fn spec() -> AttributedGraphSpec {
    AttributedGraphSpec {
        n: 160,
        n_clusters: 3,
        avg_degree: 6.0,
        p_intra: 0.85,
        missing_intra: 0.05,
        degree_exponent: 2.5,
        cluster_size_skew: 0.2,
        attributes: Some(AttributeSpec {
            dim: 36,
            topic_words: 9,
            tokens_per_node: 12,
            attr_noise: 0.2,
        }),
        seed: 41,
    }
}

fn index_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let ds = spec().generate("corrupt-idx").expect("generate");
        let index = ClusterIndex::from_dataset(
            &ds,
            &TnamConfig::new(8, MetricFn::Cosine),
            LacaParams::new(1e-4),
        )
        .expect("build");
        write_index_bytes(&index)
    })
}

fn dataset_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let s = spec();
        let ds = s.generate("corrupt-ds").expect("generate");
        write_dataset_bytes(&ds, s.fingerprint())
    })
}

/// Parses the (already-validated) section table of a good image:
/// `(id, offset, len)` triples. Test-side mirror of the format layout.
fn sections(bytes: &[u8]) -> Vec<(u32, usize, usize)> {
    let count = u32::from_ne_bytes(bytes[12..16].try_into().expect("header")) as usize;
    (0..count)
        .map(|e| {
            let base = 32 + e * 32;
            let id = u32::from_ne_bytes(bytes[base..base + 4].try_into().expect("entry"));
            let off =
                u64::from_ne_bytes(bytes[base + 8..base + 16].try_into().expect("entry")) as usize;
            let len =
                u64::from_ne_bytes(bytes[base + 16..base + 24].try_into().expect("entry")) as usize;
            (id, off, len)
        })
        .collect()
}

#[test]
fn baseline_images_load() {
    assert!(read_index_bytes(index_bytes()).is_ok());
    assert!(read_dataset_bytes(dataset_bytes()).is_ok());
}

#[test]
fn truncation_at_every_boundary_is_typed() {
    let bytes = index_bytes();
    // Structural boundaries plus a sweep of arbitrary prefixes.
    let mut cuts = vec![0, 1, 7, 8, 15, 16, 31, 32, 33, 63, 64, bytes.len() - 1];
    for &(_, off, len) in &sections(bytes) {
        cuts.extend([off, off + 1, off + len - 1, off + len]);
    }
    for cut in cuts {
        if cut >= bytes.len() {
            continue;
        }
        let err = read_index_bytes(&bytes[..cut]).expect_err("truncated image accepted");
        assert!(
            matches!(
                err,
                PersistError::Truncated { .. }
                    | PersistError::BadMagic
                    | PersistError::LayoutMismatch
                    | PersistError::ChecksumMismatch { .. }
                    | PersistError::SectionTable(_)
            ),
            "cut at {cut}: unexpected error {err:?}"
        );
    }
}

#[test]
fn wrong_magic_is_rejected() {
    let mut bytes = index_bytes().to_vec();
    bytes[0] ^= 0x20;
    assert_eq!(read_index_bytes(&bytes).expect_err("bad magic"), PersistError::BadMagic);
    assert_eq!(
        read_index_bytes(b"not a laca file at all, just forty-two bytes").expect_err("garbage"),
        PersistError::BadMagic
    );
    let empty: &[u8] = &[];
    assert!(matches!(read_index_bytes(empty).expect_err("empty"), PersistError::Truncated { .. }));
}

#[test]
fn future_version_is_rejected_with_unsupported_version() {
    let mut bytes = index_bytes().to_vec();
    let future = FORMAT_VERSION + 1;
    bytes[8..12].copy_from_slice(&future.to_ne_bytes());
    assert_eq!(
        read_index_bytes(&bytes).expect_err("future version"),
        PersistError::UnsupportedVersion { found: future, supported: FORMAT_VERSION }
    );
    // Version 0 never existed.
    bytes[8..12].copy_from_slice(&0u32.to_ne_bytes());
    assert_eq!(
        read_index_bytes(&bytes).expect_err("version zero"),
        PersistError::UnsupportedVersion { found: 0, supported: FORMAT_VERSION }
    );
}

#[test]
fn scrambled_layout_probe_is_rejected() {
    let mut bytes = index_bytes().to_vec();
    // The probe word as a foreign byte order would deliver it.
    bytes[16..24].reverse();
    assert_eq!(read_index_bytes(&bytes).expect_err("probe"), PersistError::LayoutMismatch);
}

#[test]
fn flipped_byte_in_every_section_is_a_named_checksum_mismatch() {
    for (what, bytes, as_dataset) in
        [("index", index_bytes(), false), ("dataset", dataset_bytes(), true)]
    {
        for &(id, off, len) in &sections(bytes) {
            if len == 0 {
                continue;
            }
            for probe in [off, off + len / 2, off + len - 1] {
                let mut corrupt = bytes.to_vec();
                corrupt[probe] ^= 0x01;
                let err = if as_dataset {
                    read_dataset_bytes(&corrupt).map(|_| ()).expect_err("corrupt section")
                } else {
                    read_index_bytes(&corrupt).map(|_| ()).expect_err("corrupt section")
                };
                assert!(
                    matches!(err, PersistError::ChecksumMismatch { section } if section != "table"),
                    "{what} section {id} byte {probe}: unexpected error {err:?}"
                );
            }
        }
    }
}

#[test]
fn flipped_byte_in_table_or_header_checksum_is_caught() {
    let bytes = index_bytes();
    for probe in [32, 40, 48, 24, 28] {
        let mut corrupt = bytes.to_vec();
        corrupt[probe] ^= 0x80;
        let err = read_index_bytes(&corrupt).expect_err("corrupt table");
        assert!(
            matches!(
                err,
                PersistError::ChecksumMismatch { section: "table" } | PersistError::SectionTable(_)
            ),
            "byte {probe}: unexpected error {err:?}"
        );
    }
}

#[test]
fn header_constants_are_what_the_format_doc_says() {
    let bytes = index_bytes();
    assert_eq!(&bytes[0..8], &MAGIC);
    assert_eq!(u32::from_ne_bytes(bytes[8..12].try_into().expect("version")), FORMAT_VERSION);
}

#[test]
fn inconsistent_ground_truth_fails_closed() {
    let s = spec();
    let ds = s.generate("corrupt-gt").expect("generate");

    // Membership pointing at a cluster that does not exist.
    let mut bad = ds.clone();
    bad.membership[0] = bad.clusters.len() as u32 + 7;
    let err = read_dataset_bytes(&write_dataset_bytes(&bad, 0)).expect_err("bad membership");
    assert_eq!(err, PersistError::Meta("membership references a cluster out of range"));

    // A cluster claiming a node whose membership disagrees.
    let mut bad = ds.clone();
    let stray = bad.clusters[1][0];
    bad.clusters[0].push(stray);
    let err = read_dataset_bytes(&write_dataset_bytes(&bad, 0)).expect_err("bad cluster list");
    assert_eq!(err, PersistError::Meta("cluster lists disagree with membership"));

    // Membership array shorter than the node count.
    let mut bad = ds.clone();
    bad.membership.pop();
    let err = read_dataset_bytes(&write_dataset_bytes(&bad, 0)).expect_err("short membership");
    assert_eq!(err, PersistError::Meta("membership length disagrees with node count"));
}

#[test]
fn structurally_invalid_graph_sections_fail_closed() {
    // Corrupt CSR neighbor data *and* re-stamp its checksum, so the
    // container layer passes and the structural validators must catch it.
    let bytes = index_bytes();
    let secs = sections(bytes);
    let &(_, off, len) =
        secs.iter().find(|(id, _, _)| *id == 3).expect("CSR_NEIGHBORS section present");
    assert!(len >= 4);
    let mut corrupt = bytes.to_vec();
    // Point the first neighbor id far out of range.
    corrupt[off..off + 4].copy_from_slice(&u32::MAX.to_ne_bytes());
    restamp(&mut corrupt, off, len);
    let err = read_index_bytes(&corrupt).expect_err("invalid neighbor accepted");
    assert!(matches!(err, PersistError::Graph(_)), "expected a typed graph error, got {err:?}");
}

#[test]
fn tampered_params_fail_the_fingerprint_check() {
    // Flip one bit of the stored epsilon inside META and re-stamp the
    // checksum: the params fingerprint re-verification must refuse.
    let bytes = index_bytes();
    let secs = sections(bytes);
    let &(_, off, len) = secs.iter().find(|(id, _, _)| *id == 1).expect("META present");
    let mut corrupt = bytes.to_vec();
    corrupt[off + 5 * 8] ^= 0x01; // word 5 = epsilon bits
    restamp(&mut corrupt, off, len);
    assert_eq!(
        read_index_bytes(&corrupt).expect_err("tampered params"),
        PersistError::Fingerprint("params")
    );
}

#[test]
fn nonzero_solver_tag_is_rejected_as_meta() {
    // META word 7 once tagged a solver choice (1 and 2 were the greedy and
    // non-greedy ones). Only 0 is valid now: the reader must refuse any
    // other tag with a typed error instead of guessing a solver.
    let bytes = index_bytes();
    let secs = sections(bytes);
    let &(_, off, len) = secs.iter().find(|(id, _, _)| *id == 1).expect("META present");
    for tag in [1u64, 2] {
        let mut corrupt = bytes.to_vec();
        corrupt[off + 7 * 8..off + 8 * 8].copy_from_slice(&tag.to_ne_bytes());
        restamp(&mut corrupt, off, len);
        let err = read_index_bytes(&corrupt).expect_err("nonzero solver tag accepted");
        assert!(matches!(err, PersistError::Meta(_)), "tag {tag}: expected Meta, got {err:?}");
    }
}

/// Recomputes a section checksum and the table checksum after a
/// deliberate payload edit (mirrors the format's checksum definition so
/// tampering tests reach the layers *behind* the checksums).
fn restamp(bytes: &mut [u8], sec_off: usize, sec_len: usize) {
    fn mix(mut x: u64) -> u64 {
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
    fn checksum(bytes: &[u8]) -> u64 {
        let mut acc = 0x9E37_79B9_7F4A_7C15u64 ^ (bytes.len() as u64);
        let words = bytes.len() / 8;
        for i in 0..words {
            let mut w = [0u8; 8];
            w.copy_from_slice(&bytes[i * 8..i * 8 + 8]);
            acc = mix(acc ^ u64::from_le_bytes(w));
        }
        let rem = &bytes[words * 8..];
        if !rem.is_empty() {
            let mut w = [0u8; 8];
            w[..rem.len()].copy_from_slice(rem);
            acc = mix(acc ^ u64::from_le_bytes(w) ^ 0xFF);
        }
        mix(acc)
    }
    let sum = checksum(&bytes[sec_off..sec_off + sec_len]);
    let count = u32::from_ne_bytes(bytes[12..16].try_into().expect("header")) as usize;
    for e in 0..count {
        let base = 32 + e * 32;
        let off = u64::from_ne_bytes(bytes[base + 8..base + 16].try_into().expect("entry"));
        if off as usize == sec_off {
            bytes[base + 24..base + 32].copy_from_slice(&sum.to_ne_bytes());
        }
    }
    let table = checksum(&bytes[32..32 + count * 32]);
    bytes[24..32].copy_from_slice(&table.to_ne_bytes());
}

#[test]
fn dataset_and_index_stay_usable_after_failed_parses() {
    // Failed loads must not poison later good loads (no global state).
    let mut corrupt = index_bytes().to_vec();
    corrupt[100] ^= 0xFF;
    let _ = read_index_bytes(&corrupt);
    let index = read_index_bytes(index_bytes()).expect("good image still loads");
    let ds = AttributedDataset::new(
        "t".into(),
        CsrGraph::from_raw_parts(vec![0, 1, 2], vec![1, 0], None).expect("graph"),
        laca_graph::AttributeMatrix::empty(2),
        vec![0, 0],
        vec![vec![0, 1]],
    );
    let _ = read_dataset_bytes(&write_dataset_bytes(&ds, 1)).expect("tiny dataset round trip");
    assert!(index.n() > 0);
}
