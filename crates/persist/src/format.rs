//! LACA index format v1: the flat binary container.
//!
//! A file is `header · section table · aligned payload sections`. The
//! header carries the magic, the format version, the section count, a
//! layout probe word and the table checksum; each table entry names a
//! section id, its byte range and its checksum. Payload sections start
//! on 64-byte boundaries and hold the backing arrays verbatim (native
//! layout), so the read path is: validate everything, then one `memcpy`
//! per section — no per-element decode.
//!
//! **Versioning policy.** `FORMAT_VERSION` is the newest version this
//! build writes; the reader accepts every version `1..=FORMAT_VERSION`
//! and fails closed with [`PersistError::UnsupportedVersion`] on
//! anything newer — readers never guess forward. Bumping the version
//! requires a committed golden fixture for the new version (enforced by
//! `tests/golden.rs`), so every readable version stays readable.

use crate::bytes::{bytes_of, checksum, u64s_to_usizes, usize_bytes, vec_from_bytes};
use crate::PersistError;
use laca_core::{LacaParams, MetricFn, Tnam, TnamRowsView};
use laca_graph::{AttributeMatrix, AttributedDataset, CsrGraph, NodeId};
use laca_linalg::DenseMatrix;
use laca_service::ClusterIndex;
use std::borrow::Cow;
use std::sync::Arc;

/// File magic: the first eight bytes of every LACA image.
pub const MAGIC: [u8; 8] = *b"LACAIDX\0";

/// Newest format version this build writes; the reader accepts
/// `1..=FORMAT_VERSION`.
pub const FORMAT_VERSION: u32 = 1;

/// Known pattern written natively; a reader on a host with a different
/// byte order sees it scrambled and fails closed with
/// [`PersistError::LayoutMismatch`] before touching any payload.
const PROBE: u64 = 0x0102_0304_0506_0708;

/// Payload sections start on this boundary (cache-line / SIMD friendly,
/// and ≥ the alignment of every element type).
const ALIGN: usize = 64;

const HEADER_LEN: usize = 32;
const ENTRY_LEN: usize = 32;
const MAX_SECTIONS: u32 = 64;
const META_WORDS: usize = 20;

// Section ids (format v1). Gaps are reserved for future versions.
const SEC_META: u32 = 1;
const SEC_CSR_OFFSETS: u32 = 2;
const SEC_CSR_NEIGHBORS: u32 = 3;
const SEC_CSR_WEIGHTS: u32 = 4;
const SEC_TNAM_DENSE: u32 = 5;
const SEC_TNAM_SCALES: u32 = 6;
const SEC_ATTR_OFFSETS: u32 = 7;
const SEC_ATTR_INDICES: u32 = 8;
const SEC_ATTR_VALUES: u32 = 9;
const SEC_MEMBERSHIP: u32 = 10;
const SEC_CLUSTER_OFFSETS: u32 = 11;
const SEC_CLUSTER_NODES: u32 = 12;

// Image kinds (META word 0).
const KIND_INDEX: u64 = 1;
const KIND_DATASET: u64 = 2;

// META flag bits (word 3).
const FLAG_WEIGHTED: u64 = 1 << 0;
const FLAG_TNAM_DENSE: u64 = 1 << 1;
const FLAG_TNAM_SPARSE: u64 = 1 << 2;
const FLAG_ATTRS: u64 = 1 << 3;
const FLAG_CLUSTERS: u64 = 1 << 4;
const FLAG_ALL: u64 =
    FLAG_WEIGHTED | FLAG_TNAM_DENSE | FLAG_TNAM_SPARSE | FLAG_ATTRS | FLAG_CLUSTERS;

fn section_name(id: u32) -> &'static str {
    match id {
        SEC_META => "META",
        SEC_CSR_OFFSETS => "CSR_OFFSETS",
        SEC_CSR_NEIGHBORS => "CSR_NEIGHBORS",
        SEC_CSR_WEIGHTS => "CSR_WEIGHTS",
        SEC_TNAM_DENSE => "TNAM_DENSE",
        SEC_TNAM_SCALES => "TNAM_SCALES",
        SEC_ATTR_OFFSETS => "ATTR_OFFSETS",
        SEC_ATTR_INDICES => "ATTR_INDICES",
        SEC_ATTR_VALUES => "ATTR_VALUES",
        SEC_MEMBERSHIP => "MEMBERSHIP",
        SEC_CLUSTER_OFFSETS => "CLUSTER_OFFSETS",
        SEC_CLUSTER_NODES => "CLUSTER_NODES",
        _ => "unknown",
    }
}

fn align_up(x: usize) -> usize {
    x.div_ceil(ALIGN) * ALIGN
}

fn u32_at(b: &[u8], off: usize) -> Option<u32> {
    let s = b.get(off..off.checked_add(4)?)?;
    let mut w = [0u8; 4];
    w.copy_from_slice(s);
    Some(u32::from_ne_bytes(w))
}

fn u64_at(b: &[u8], off: usize) -> Option<u64> {
    let s = b.get(off..off.checked_add(8)?)?;
    let mut w = [0u8; 8];
    w.copy_from_slice(s);
    Some(u64::from_ne_bytes(w))
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Lays out `header · table · aligned sections` and stamps every
/// checksum. Deterministic: the same sections always produce the same
/// bytes (alignment padding is zeroed), which the golden-fixture tests
/// rely on.
fn assemble(sections: &[(u32, Cow<'_, [u8]>)]) -> Vec<u8> {
    debug_assert!(sections.len() <= MAX_SECTIONS as usize);
    debug_assert!(sections.windows(2).all(|w| w[0].0 < w[1].0), "sections must be id-sorted");
    let table_end = HEADER_LEN + sections.len() * ENTRY_LEN;
    let mut offsets = Vec::with_capacity(sections.len());
    let mut off = align_up(table_end);
    for (_, body) in sections {
        offsets.push(off);
        off = align_up(off + body.len());
    }
    let total = match (offsets.last(), sections.last()) {
        (Some(&o), Some((_, body))) => o + body.len(),
        _ => table_end,
    };
    let mut out = vec![0u8; total];
    let mut table = Vec::with_capacity(sections.len() * ENTRY_LEN);
    for ((id, body), &o) in sections.iter().zip(&offsets) {
        table.extend_from_slice(&id.to_ne_bytes());
        table.extend_from_slice(&0u32.to_ne_bytes());
        table.extend_from_slice(&(o as u64).to_ne_bytes());
        table.extend_from_slice(&(body.len() as u64).to_ne_bytes());
        table.extend_from_slice(&checksum(body).to_ne_bytes());
        out[o..o + body.len()].copy_from_slice(body);
    }
    out[0..8].copy_from_slice(&MAGIC);
    out[8..12].copy_from_slice(&FORMAT_VERSION.to_ne_bytes());
    out[12..16].copy_from_slice(&(sections.len() as u32).to_ne_bytes());
    out[16..24].copy_from_slice(&PROBE.to_ne_bytes());
    out[24..32].copy_from_slice(&checksum(&table).to_ne_bytes());
    out[HEADER_LEN..table_end].copy_from_slice(&table);
    out
}

fn meta_section(words: &[u64; META_WORDS], name: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(META_WORDS * 8 + name.len());
    out.extend_from_slice(bytes_of(words.as_slice()));
    out.extend_from_slice(name.as_bytes());
    out
}

fn push_attr_sections<'a>(tail: &mut Vec<(u32, Cow<'a, [u8]>)>, attrs: &'a AttributeMatrix) {
    tail.push((SEC_ATTR_OFFSETS, usize_bytes(attrs.offsets())));
    tail.push((SEC_ATTR_INDICES, Cow::Borrowed(bytes_of(attrs.indices_flat()))));
    tail.push((SEC_ATTR_VALUES, Cow::Borrowed(bytes_of(attrs.values_flat()))));
}

/// Serializes a [`ClusterIndex`] to an in-memory format-v1 image.
///
/// Sections are written verbatim from the live arrays (zero-copy on the
/// save side apart from the output buffer itself); the META section
/// carries the query parameters and all three identity fingerprints
/// ([`LacaParams::fingerprint`], the TNAM's config fingerprint, and
/// [`ClusterIndex::fingerprint`]), which [`read_index_bytes`] re-verifies.
pub fn write_index_bytes(index: &ClusterIndex) -> Vec<u8> {
    let g = index.graph();
    let params = index.params();
    let mut words = [0u64; META_WORDS];
    words[0] = KIND_INDEX;
    words[1] = g.n() as u64;
    words[2] = g.neighbors_flat().len() as u64;
    words[4] = params.alpha.to_bits();
    words[5] = params.epsilon.to_bits();
    words[6] = params.sigma.to_bits();
    // Word 7 held a solver-selection tag whose only value now is 0
    // (AdaptiveDiffuse); it stays 0 and the reader rejects anything else.
    words[8] = params.use_snas as u64;
    words[9] = params.fingerprint();
    words[11] = index.fingerprint();
    words[19] = index.dataset().len() as u64;

    let mut flags = 0u64;
    let mut tail: Vec<(u32, Cow<'_, [u8]>)> = vec![
        (SEC_CSR_OFFSETS, usize_bytes(g.offsets())),
        (SEC_CSR_NEIGHBORS, Cow::Borrowed(bytes_of(g.neighbors_flat()))),
    ];
    if let Some(w) = g.weights_flat() {
        flags |= FLAG_WEIGHTED;
        tail.push((SEC_CSR_WEIGHTS, Cow::Borrowed(bytes_of(w))));
    }
    if let Some(tnam) = index.tnam() {
        words[10] = tnam.fingerprint();
        words[12] = tnam.width() as u64;
        match tnam.metric() {
            MetricFn::Cosine => words[13] = 0,
            MetricFn::ExpCosine { delta } => {
                words[13] = 1;
                words[14] = delta.to_bits();
            }
        }
        match tnam.rows_view() {
            TnamRowsView::Dense(z) => {
                flags |= FLAG_TNAM_DENSE;
                tail.push((SEC_TNAM_DENSE, Cow::Borrowed(bytes_of(z.as_slice()))));
            }
            TnamRowsView::SparseScaled { attrs, scales } => {
                flags |= FLAG_TNAM_SPARSE | FLAG_ATTRS;
                words[15] = attrs.dim() as u64;
                words[16] = attrs.nnz() as u64;
                tail.push((SEC_TNAM_SCALES, Cow::Borrowed(bytes_of(scales))));
                push_attr_sections(&mut tail, attrs);
            }
        }
    }
    words[3] = flags;
    let meta = meta_section(&words, index.dataset());
    let mut sections: Vec<(u32, Cow<'_, [u8]>)> = vec![(SEC_META, Cow::Owned(meta))];
    sections.extend(tail);
    sections.sort_by_key(|(id, _)| *id);
    assemble(&sections)
}

/// Serializes a generated [`AttributedDataset`] (graph + attributes +
/// planted ground truth) to a format-v1 image, stamped with the
/// [`laca_graph::gen::AttributedGraphSpec::fingerprint`] that generated
/// it — the cache key CI uses to skip regeneration.
pub fn write_dataset_bytes(ds: &AttributedDataset, spec_fingerprint: u64) -> Vec<u8> {
    let g = &ds.graph;
    let mut words = [0u64; META_WORDS];
    words[0] = KIND_DATASET;
    words[1] = g.n() as u64;
    words[2] = g.neighbors_flat().len() as u64;
    words[9] = spec_fingerprint;
    words[17] = ds.clusters.len() as u64;
    words[19] = ds.name.len() as u64;

    let mut cluster_offsets: Vec<usize> = Vec::with_capacity(ds.clusters.len() + 1);
    let mut cluster_nodes: Vec<NodeId> = Vec::new();
    cluster_offsets.push(0);
    for c in &ds.clusters {
        cluster_nodes.extend_from_slice(c);
        cluster_offsets.push(cluster_nodes.len());
    }
    words[18] = cluster_nodes.len() as u64;

    let mut flags = FLAG_CLUSTERS;
    let mut tail: Vec<(u32, Cow<'_, [u8]>)> = vec![
        (SEC_CSR_OFFSETS, usize_bytes(g.offsets())),
        (SEC_CSR_NEIGHBORS, Cow::Borrowed(bytes_of(g.neighbors_flat()))),
        (SEC_MEMBERSHIP, Cow::Borrowed(bytes_of(&ds.membership))),
    ];
    if let Some(w) = g.weights_flat() {
        flags |= FLAG_WEIGHTED;
        tail.push((SEC_CSR_WEIGHTS, Cow::Borrowed(bytes_of(w))));
    }
    if !ds.attributes.is_empty() {
        flags |= FLAG_ATTRS;
        words[15] = ds.attributes.dim() as u64;
        words[16] = ds.attributes.nnz() as u64;
        push_attr_sections(&mut tail, &ds.attributes);
    }
    words[3] = flags;
    let meta = meta_section(&words, &ds.name);
    let co = usize_bytes(&cluster_offsets);
    let mut sections: Vec<(u32, Cow<'_, [u8]>)> = vec![(SEC_META, Cow::Owned(meta))];
    sections.extend(tail);
    sections.push((SEC_CLUSTER_OFFSETS, co));
    sections.push((SEC_CLUSTER_NODES, Cow::Borrowed(bytes_of(&cluster_nodes))));
    sections.sort_by_key(|(id, _)| *id);
    assemble(&sections)
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A validated container: every section's bounds and checksum have been
/// verified against the raw buffer (nothing reconstructed yet).
struct Image<'a> {
    sections: Vec<(u32, &'a [u8])>,
}

impl<'a> Image<'a> {
    fn section(&self, id: u32) -> Option<&'a [u8]> {
        self.sections.iter().find(|(sid, _)| *sid == id).map(|(_, body)| *body)
    }

    fn require(&self, id: u32) -> Result<&'a [u8], PersistError> {
        self.section(id).ok_or(PersistError::MissingSection(section_name(id)))
    }

    /// One-`memcpy` reconstruction of a section into a typed vector.
    fn take_vec<T: crate::bytes::Pod>(&self, id: u32) -> Result<Vec<T>, PersistError> {
        vec_from_bytes(self.require(id)?)
            .ok_or(PersistError::SectionTable("section length not a multiple of element size"))
    }

    /// Rejects any section the image kind + flags do not call for.
    fn ensure_only(&self, allowed: &[u32]) -> Result<(), PersistError> {
        for &(id, _) in &self.sections {
            if !allowed.contains(&id) {
                return Err(PersistError::UnexpectedSection(id));
            }
        }
        Ok(())
    }
}

/// Validates the container envelope: magic → layout probe → version →
/// section table checksum → per-section bounds and checksums. Everything
/// downstream can trust section byte ranges.
fn parse_container(bytes: &[u8]) -> Result<Image<'_>, PersistError> {
    let have = bytes.len() as u64;
    if bytes.len() < HEADER_LEN {
        return Err(PersistError::Truncated { needed: HEADER_LEN as u64, have });
    }
    if bytes[0..8] != MAGIC {
        return Err(PersistError::BadMagic);
    }
    if u64_at(bytes, 16) != Some(PROBE) {
        return Err(PersistError::LayoutMismatch);
    }
    let version = u32_at(bytes, 8).unwrap_or(0);
    if version == 0 || version > FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion { found: version, supported: FORMAT_VERSION });
    }
    let count = u32_at(bytes, 12).unwrap_or(u32::MAX);
    if count > MAX_SECTIONS {
        return Err(PersistError::SectionTable("section count exceeds limit"));
    }
    let table_end = HEADER_LEN + count as usize * ENTRY_LEN;
    if bytes.len() < table_end {
        return Err(PersistError::Truncated { needed: table_end as u64, have });
    }
    let table = &bytes[HEADER_LEN..table_end];
    if u64_at(bytes, 24) != Some(checksum(table)) {
        return Err(PersistError::ChecksumMismatch { section: "table" });
    }
    let mut sections = Vec::with_capacity(count as usize);
    let mut prev_id = 0u32;
    let mut min_off = align_up(table_end) as u64;
    for e in 0..count as usize {
        let entry = table
            .get(e * ENTRY_LEN..(e + 1) * ENTRY_LEN)
            .ok_or(PersistError::SectionTable("table entry out of bounds"))?;
        let id = u32_at(entry, 0).ok_or(PersistError::SectionTable("table entry truncated"))?;
        let pad = u32_at(entry, 4).ok_or(PersistError::SectionTable("table entry truncated"))?;
        let off = u64_at(entry, 8).ok_or(PersistError::SectionTable("table entry truncated"))?;
        let len = u64_at(entry, 16).ok_or(PersistError::SectionTable("table entry truncated"))?;
        let sum = u64_at(entry, 24).ok_or(PersistError::SectionTable("table entry truncated"))?;
        if pad != 0 {
            return Err(PersistError::SectionTable("nonzero entry padding"));
        }
        if id <= prev_id {
            return Err(PersistError::SectionTable("section ids not strictly increasing"));
        }
        prev_id = id;
        if id > SEC_CLUSTER_NODES {
            return Err(PersistError::UnexpectedSection(id));
        }
        if off % ALIGN as u64 != 0 {
            return Err(PersistError::SectionTable("misaligned section offset"));
        }
        if off < min_off {
            return Err(PersistError::SectionTable("section overlaps header or earlier section"));
        }
        let end =
            off.checked_add(len).ok_or(PersistError::SectionTable("section length overflow"))?;
        if end > have {
            return Err(PersistError::Truncated { needed: end, have });
        }
        // `end ≤ have ≤ usize::MAX` on any host that holds `bytes`.
        let body = bytes
            .get(off as usize..end as usize)
            .ok_or(PersistError::SectionTable("section out of bounds"))?;
        if checksum(body) != sum {
            return Err(PersistError::ChecksumMismatch { section: section_name(id) });
        }
        min_off = end;
        sections.push((id, body));
    }
    Ok(Image { sections })
}

fn parse_meta(body: &[u8]) -> Result<([u64; META_WORDS], String), PersistError> {
    let head = META_WORDS * 8;
    if body.len() < head {
        return Err(PersistError::Meta("META section too short"));
    }
    let mut words = [0u64; META_WORDS];
    for (i, w) in words.iter_mut().enumerate() {
        *w = u64_at(body, i * 8).ok_or(PersistError::Meta("META section too short"))?;
    }
    if words[19] != (body.len() - head) as u64 {
        return Err(PersistError::Meta("name length disagrees with META size"));
    }
    let name = std::str::from_utf8(&body[head..])
        .map_err(|_| PersistError::Meta("name is not valid UTF-8"))?
        .to_string();
    Ok((words, name))
}

fn meta_usize(w: u64, what: &'static str) -> Result<usize, PersistError> {
    usize::try_from(w).map_err(|_| PersistError::Meta(what))
}

fn read_graph(img: &Image<'_>, words: &[u64; META_WORDS]) -> Result<CsrGraph, PersistError> {
    let n = meta_usize(words[1], "node count overflows this host")?;
    let n_plus = n.checked_add(1).ok_or(PersistError::Meta("node count overflows this host"))?;
    let offsets = img.take_vec::<u64>(SEC_CSR_OFFSETS)?;
    if offsets.len() != n_plus {
        return Err(PersistError::Meta("CSR offsets length disagrees with node count"));
    }
    let neighbors = img.take_vec::<u32>(SEC_CSR_NEIGHBORS)?;
    if neighbors.len() as u64 != words[2] {
        return Err(PersistError::Meta("neighbor count disagrees with metadata"));
    }
    let weights = if words[3] & FLAG_WEIGHTED != 0 {
        Some(img.take_vec::<f64>(SEC_CSR_WEIGHTS)?)
    } else {
        None
    };
    Ok(CsrGraph::from_raw_parts(u64s_to_usizes(offsets), neighbors, weights)?)
}

fn read_attrs(img: &Image<'_>, words: &[u64; META_WORDS]) -> Result<AttributeMatrix, PersistError> {
    let n = meta_usize(words[1], "node count overflows this host")?;
    let dim = meta_usize(words[15], "attribute dimension overflows this host")?;
    let offsets = img.take_vec::<u64>(SEC_ATTR_OFFSETS)?;
    if offsets.len() != n + 1 {
        return Err(PersistError::Meta("attribute offsets length disagrees with node count"));
    }
    let indices = img.take_vec::<u32>(SEC_ATTR_INDICES)?;
    let values = img.take_vec::<f64>(SEC_ATTR_VALUES)?;
    if indices.len() as u64 != words[16] {
        return Err(PersistError::Meta("attribute nnz disagrees with metadata"));
    }
    Ok(AttributeMatrix::from_raw_parts(dim, u64s_to_usizes(offsets), indices, values)?)
}

fn metric_from(words: &[u64; META_WORDS]) -> Result<MetricFn, PersistError> {
    match words[13] {
        0 => {
            if words[14] != 0 {
                return Err(PersistError::Meta("cosine metric carries a delta"));
            }
            Ok(MetricFn::Cosine)
        }
        1 => Ok(MetricFn::ExpCosine { delta: f64::from_bits(words[14]) }),
        _ => Err(PersistError::Meta("unknown metric tag")),
    }
}

/// Deserializes a [`ClusterIndex`] from a format image.
///
/// Fail-closed: the container envelope is validated first
/// (in order: magic → layout probe → version → table →
/// section checksums), then the META block's self-consistency, then the
/// arrays are reconstructed through the same structural validators as a
/// fresh build (`CsrGraph::from_raw_parts` etc.), and finally all stored
/// identity fingerprints are re-verified against the recomputed ones —
/// a loaded index can never be cached or routed under the wrong key.
pub fn read_index_bytes(bytes: &[u8]) -> Result<ClusterIndex, PersistError> {
    let img = parse_container(bytes)?;
    let (words, name) = parse_meta(img.require(SEC_META)?)?;
    if words[0] != KIND_INDEX {
        return Err(PersistError::Meta("not an index image"));
    }
    let flags = words[3];
    if flags & !FLAG_ALL != 0 {
        return Err(PersistError::Meta("unknown flag bits"));
    }
    if flags & FLAG_CLUSTERS != 0 {
        return Err(PersistError::Meta("index image flags dataset sections"));
    }
    let mut allowed = vec![SEC_META, SEC_CSR_OFFSETS, SEC_CSR_NEIGHBORS];
    if flags & FLAG_WEIGHTED != 0 {
        allowed.push(SEC_CSR_WEIGHTS);
    }
    if flags & FLAG_TNAM_DENSE != 0 {
        allowed.push(SEC_TNAM_DENSE);
    }
    if flags & FLAG_TNAM_SPARSE != 0 {
        allowed.extend([SEC_TNAM_SCALES, SEC_ATTR_OFFSETS, SEC_ATTR_INDICES, SEC_ATTR_VALUES]);
    }
    img.ensure_only(&allowed)?;

    let graph = read_graph(&img, &words)?;
    let n = graph.n();
    let tnam = match (flags & FLAG_TNAM_DENSE != 0, flags & FLAG_TNAM_SPARSE != 0) {
        (true, true) => return Err(PersistError::Meta("both TNAM representations flagged")),
        (true, false) => {
            let width = meta_usize(words[12], "TNAM width overflows this host")?;
            let data = img.take_vec::<f64>(SEC_TNAM_DENSE)?;
            let expected =
                n.checked_mul(width).ok_or(PersistError::Meta("TNAM size overflows this host"))?;
            if data.len() != expected {
                return Err(PersistError::Meta("TNAM size disagrees with metadata"));
            }
            let z = DenseMatrix::from_vec(n, width, data)
                .map_err(|_| PersistError::Meta("TNAM matrix shape invalid"))?;
            Some(Arc::new(Tnam::from_dense_parts(z, metric_from(&words)?, words[10])?))
        }
        (false, true) => {
            if flags & FLAG_ATTRS == 0 {
                return Err(PersistError::Meta("sparse TNAM without attribute sections"));
            }
            if words[13] != 0 {
                return Err(PersistError::Meta("sparse TNAM requires the cosine metric"));
            }
            let scales = img.take_vec::<f64>(SEC_TNAM_SCALES)?;
            if scales.len() != n {
                return Err(PersistError::Meta("TNAM scales length disagrees with node count"));
            }
            let attrs = read_attrs(&img, &words)?;
            let t = Tnam::from_sparse_scaled_parts(attrs, scales, words[10])?;
            if t.width() as u64 != words[12] {
                return Err(PersistError::Meta("TNAM width disagrees with metadata"));
            }
            Some(Arc::new(t))
        }
        (false, false) => {
            if words[10] != 0 || words[12] != 0 {
                return Err(PersistError::Meta("TNAM metadata without TNAM sections"));
            }
            None
        }
    };
    if let Some(t) = &tnam {
        if t.width() as u64 != words[12] {
            return Err(PersistError::Meta("TNAM width disagrees with metadata"));
        }
    }
    if words[7] != 0 {
        return Err(PersistError::Meta("unknown diffusion solver tag"));
    }
    let params = LacaParams {
        alpha: f64::from_bits(words[4]),
        epsilon: f64::from_bits(words[5]),
        sigma: f64::from_bits(words[6]),
        use_snas: match words[8] {
            0 => false,
            1 => true,
            _ => return Err(PersistError::Meta("invalid use_snas tag")),
        },
    };
    if params.fingerprint() != words[9] {
        return Err(PersistError::Fingerprint("params"));
    }
    let index = ClusterIndex::new(Arc::new(graph), tnam, params)?.with_dataset(&name);
    if index.fingerprint() != words[11] {
        return Err(PersistError::Fingerprint("index"));
    }
    Ok(index)
}

/// Deserializes an [`AttributedDataset`] image, returning the dataset and
/// the generator-spec fingerprint it was stamped with.
///
/// Same fail-closed pipeline as [`read_index_bytes`], plus ground-truth
/// structural checks: membership covers every node with in-range cluster
/// ids, cluster lists partition consistently with membership, and every
/// listed node id is in range.
pub fn read_dataset_bytes(bytes: &[u8]) -> Result<(AttributedDataset, u64), PersistError> {
    let img = parse_container(bytes)?;
    let (words, name) = parse_meta(img.require(SEC_META)?)?;
    if words[0] != KIND_DATASET {
        return Err(PersistError::Meta("not a dataset image"));
    }
    let flags = words[3];
    if flags & !FLAG_ALL != 0 {
        return Err(PersistError::Meta("unknown flag bits"));
    }
    if flags & (FLAG_TNAM_DENSE | FLAG_TNAM_SPARSE) != 0 {
        return Err(PersistError::Meta("dataset image flags TNAM sections"));
    }
    if flags & FLAG_CLUSTERS == 0 {
        return Err(PersistError::Meta("dataset image without ground-truth flag"));
    }
    let mut allowed = vec![
        SEC_META,
        SEC_CSR_OFFSETS,
        SEC_CSR_NEIGHBORS,
        SEC_MEMBERSHIP,
        SEC_CLUSTER_OFFSETS,
        SEC_CLUSTER_NODES,
    ];
    if flags & FLAG_WEIGHTED != 0 {
        allowed.push(SEC_CSR_WEIGHTS);
    }
    if flags & FLAG_ATTRS != 0 {
        allowed.extend([SEC_ATTR_OFFSETS, SEC_ATTR_INDICES, SEC_ATTR_VALUES]);
    }
    img.ensure_only(&allowed)?;

    let graph = read_graph(&img, &words)?;
    let n = graph.n();
    let attributes =
        if flags & FLAG_ATTRS != 0 { read_attrs(&img, &words)? } else { AttributeMatrix::empty(n) };
    let membership = img.take_vec::<u32>(SEC_MEMBERSHIP)?;
    if membership.len() != n {
        return Err(PersistError::Meta("membership length disagrees with node count"));
    }
    let n_clusters = meta_usize(words[17], "cluster count overflows this host")?;
    if n_clusters == 0 {
        return Err(PersistError::Meta("dataset image without clusters"));
    }
    if membership.iter().any(|&c| c as usize >= n_clusters) {
        return Err(PersistError::Meta("membership references a cluster out of range"));
    }
    let cluster_offsets = img.take_vec::<u64>(SEC_CLUSTER_OFFSETS)?;
    let cluster_nodes = img.take_vec::<u32>(SEC_CLUSTER_NODES)?;
    if cluster_nodes.len() as u64 != words[18] {
        return Err(PersistError::Meta("cluster node total disagrees with metadata"));
    }
    if cluster_offsets.len() != n_clusters + 1
        || cluster_offsets.first() != Some(&0)
        || cluster_offsets.last().copied() != Some(cluster_nodes.len() as u64)
        || cluster_offsets.windows(2).any(|w| w[0] > w[1])
    {
        return Err(PersistError::Meta("cluster offsets malformed"));
    }
    let mut clusters = Vec::with_capacity(n_clusters);
    for c in 0..n_clusters {
        // In-bounds: offsets are monotone and end at cluster_nodes.len().
        let (start, end) = (cluster_offsets[c] as usize, cluster_offsets[c + 1] as usize);
        let members = &cluster_nodes[start..end];
        for &v in members {
            if v as usize >= n {
                return Err(PersistError::Meta("cluster lists a node out of range"));
            }
            if membership.get(v as usize) != Some(&(c as u32)) {
                return Err(PersistError::Meta("cluster lists disagree with membership"));
            }
        }
        clusters.push(members.to_vec());
    }
    Ok((AttributedDataset::new(name, graph, attributes, membership, clusters), words[9]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use laca_core::tnam::TnamConfig;
    use laca_graph::gen::{AttributeSpec, AttributedGraphSpec};

    fn spec() -> AttributedGraphSpec {
        AttributedGraphSpec {
            n: 180,
            n_clusters: 3,
            avg_degree: 6.0,
            p_intra: 0.85,
            missing_intra: 0.05,
            degree_exponent: 2.5,
            cluster_size_skew: 0.2,
            attributes: Some(AttributeSpec {
                dim: 40,
                topic_words: 10,
                tokens_per_node: 12,
                attr_noise: 0.2,
            }),
            seed: 23,
        }
    }

    fn check_round_trip(index: &ClusterIndex) {
        let bytes = write_index_bytes(index);
        let loaded = read_index_bytes(&bytes).expect("round trip");
        assert_eq!(loaded.fingerprint(), index.fingerprint());
        assert_eq!(loaded.dataset(), index.dataset());
        assert_eq!(loaded.params(), index.params());
        let a = index.engine();
        let b = loaded.engine();
        for seed in [0u32, 2, 7, 91].into_iter().filter(|&s| (s as usize) < index.n()) {
            let (x, sx) = a.bdd_with_stats(seed).expect("fresh query");
            let (y, sy) = b.bdd_with_stats(seed).expect("loaded query");
            let xp = x.to_sorted_pairs();
            let yp = y.to_sorted_pairs();
            assert_eq!(xp.len(), yp.len());
            for ((u, ru), (v, rv)) in xp.iter().zip(&yp) {
                assert_eq!(u, v);
                assert_eq!(ru.to_bits(), rv.to_bits(), "rho differs at node {u}");
            }
            assert_eq!(sx.bdd.push_operations, sy.bdd.push_operations, "push counts differ");
        }
        // The writer is deterministic: re-serializing the loaded index
        // reproduces the file byte for byte.
        assert_eq!(write_index_bytes(&loaded), bytes);
    }

    #[test]
    fn index_round_trips_across_configurations() {
        let ds = spec().generate("fmt-test").expect("generate");
        let cosine = TnamConfig::new(8, MetricFn::Cosine);
        let exp = TnamConfig::new(8, MetricFn::ExpCosine { delta: 1.0 });
        let ablation = TnamConfig::new(8, MetricFn::Cosine).without_svd();
        for (cfg, params) in [
            (&cosine, LacaParams::new(1e-4)),
            (&exp, LacaParams::new(1e-4).with_alpha(0.9)),
            (&ablation, LacaParams::new(1e-3)),
            (&cosine, LacaParams::new(1e-4).without_snas()),
            (&cosine, LacaParams::new(1e-4).with_sigma(1.0)),
        ] {
            let index = ClusterIndex::from_dataset(&ds, cfg, params).expect("build");
            check_round_trip(&index);
        }
    }

    #[test]
    fn weighted_graph_round_trips() {
        let offsets = vec![0usize, 2, 4, 6];
        let neighbors = vec![1u32, 2, 0, 2, 0, 1];
        let weights = vec![2.0, 0.5, 2.0, 1.25, 0.5, 1.25];
        let g = CsrGraph::from_raw_parts(offsets, neighbors, Some(weights)).expect("graph");
        let index = ClusterIndex::new(Arc::new(g), None, LacaParams::new(1e-3).without_snas())
            .expect("index")
            .with_dataset("tiny-weighted");
        check_round_trip(&index);
    }

    #[test]
    fn dataset_round_trips_bit_identically() {
        let s = spec();
        let ds = s.generate("fmt-ds").expect("generate");
        let bytes = write_dataset_bytes(&ds, s.fingerprint());
        let (back, fp) = read_dataset_bytes(&bytes).expect("round trip");
        assert_eq!(fp, s.fingerprint());
        assert_eq!(back.name, ds.name);
        assert_eq!(back.membership, ds.membership);
        assert_eq!(back.clusters, ds.clusters);
        assert_eq!(back.graph.offsets(), ds.graph.offsets());
        assert_eq!(back.graph.neighbors_flat(), ds.graph.neighbors_flat());
        assert_eq!(back.attributes.offsets(), ds.attributes.offsets());
        assert_eq!(back.attributes.indices_flat(), ds.attributes.indices_flat());
        let (a, b) = (back.attributes.values_flat(), ds.attributes.values_flat());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(write_dataset_bytes(&back, fp), bytes);
    }

    #[test]
    fn non_attributed_dataset_round_trips() {
        let mut s = spec();
        s.attributes = None;
        let ds = s.generate("fmt-plain").expect("generate");
        assert!(!ds.is_attributed());
        let (back, _) =
            read_dataset_bytes(&write_dataset_bytes(&ds, s.fingerprint())).expect("round trip");
        assert!(!back.is_attributed());
        assert_eq!(back.membership, ds.membership);
        assert_eq!(back.clusters, ds.clusters);
    }

    #[test]
    fn kind_confusion_is_rejected() {
        let s = spec();
        let ds = s.generate("fmt-kind").expect("generate");
        let index = ClusterIndex::from_dataset(
            &ds,
            &TnamConfig::new(8, MetricFn::Cosine),
            LacaParams::new(1e-4),
        )
        .expect("build");
        let idx_bytes = write_index_bytes(&index);
        let ds_bytes = write_dataset_bytes(&ds, s.fingerprint());
        assert_eq!(
            read_dataset_bytes(&idx_bytes).expect_err("index as dataset"),
            PersistError::Meta("not a dataset image")
        );
        assert_eq!(
            read_index_bytes(&ds_bytes).expect_err("dataset as index"),
            PersistError::Meta("not an index image")
        );
    }
}
