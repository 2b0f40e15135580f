//! Durable on-disk formats for the LSM: SST files and the MANIFEST.
//!
//! Both formats follow the section discipline of the core crate's wire
//! format v2: a magic + version preamble, then length-prefixed sections of
//! the shape `tag (u32 LE) | body_len (u64 LE) | body | crc32(body) (u32 LE)`
//! so every part of a file is independently verifiable and a reader can say
//! *which* section rotted. Decoding is bounded: every declared length is
//! checked against the remaining input before anything is allocated, so a
//! hostile or torn file cannot make recovery allocate unboundedly or panic.
//!
//! An SST file (`NNNNNN.sst`, magic `BSST`) carries four sections:
//!
//! | tag | section | contents |
//! |-----|---------|----------|
//! | 1 | meta   | entry count, key range, [`FilterKind`] tag + parameter, bits/key |
//! | 2 | index  | fence pointers: `(first_key, last_key, entry_count)` per block |
//! | 3 | data   | the serialized data blocks, length-prefixed |
//! | 4 | filter | the filter block bytes ([`bloomrf::BloomRf::to_bytes`]) or a rebuild marker |
//!
//! A block entry is `key (u64) | meta (u32) | payload`, where bit 31 of
//! `meta` ([`TOMBSTONE_FLAG`]) marks a delete marker (no payload, length bits
//! zero) and the low 31 bits are the payload length.
//!
//! The MANIFEST (magic `BMAN`) lists the live SST files in age order plus the
//! next file number, a per-file flags byte (bit 0 = *sealed*, set on verified
//! compaction outputs, which are never tail-skippable during recovery) and a
//! *retired* list: files whose deletion was committed but may
//! not have completed — a deletion redo log replayed on open so a crash
//! between manifest commit and file removal cannot resurrect merged-away
//! tables. Files are always written to a `.tmp` sibling and `rename`d into
//! place, so a crash leaves either the old state or the new one — never a
//! half-written live file; a torn tail can only affect the most recent,
//! not-yet-committed SST, which recovery detects and skips.

use std::fmt;
use std::io;
use std::path::PathBuf;

use bloomrf::crc32::crc32;
use bloomrf_filters::FilterKind;

use crate::sst::{DataBlocks, Records};

/// Magic bytes opening every persisted SST file.
pub const SST_MAGIC: &[u8; 4] = b"BSST";
/// The one SST file format version this build writes and reads; any other
/// stamp (the retired version 1 included) is rejected as unsupported.
pub const SST_FORMAT_VERSION: u32 = 2;
/// Magic bytes opening the MANIFEST.
pub const MANIFEST_MAGIC: &[u8; 4] = b"BMAN";
/// The one MANIFEST format version this build writes and reads; any other
/// stamp (the retired version 1 included) is rejected as unsupported.
pub const MANIFEST_FORMAT_VERSION: u32 = 2;

/// Bit 31 of a block entry's `meta` field: the entry is a tombstone (delete
/// marker). The low 31 bits are the payload length and must be zero for a
/// tombstone.
pub const TOMBSTONE_FLAG: u32 = 1 << 31;

const SECTION_META: u32 = 1;
const SECTION_INDEX: u32 = 2;
const SECTION_DATA: u32 = 3;
const SECTION_FILTER: u32 = 4;

/// A verification failure inside one persisted artifact: which section broke
/// and how. Carried as the source of [`PersistError::CorruptSst`] /
/// [`PersistError::CorruptManifest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Corruption {
    /// The section that failed (`"magic"`, `"meta"`, `"index"`, `"data"`,
    /// `"filter"`, `"layout"`, `"manifest"`).
    pub section: &'static str,
    /// Human-readable description of the failure.
    pub detail: String,
}

impl Corruption {
    pub(crate) fn new(section: &'static str, detail: impl Into<String>) -> Self {
        Self {
            section,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Corruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} section: {}", self.section, self.detail)
    }
}

impl std::error::Error for Corruption {}

/// Errors surfaced by the persistence layer ([`crate::Db::open`] and the
/// durable flush path).
#[derive(Debug)]
pub enum PersistError {
    /// An I/O operation failed (after bounded retry, for reads).
    Io {
        /// The path the operation targeted.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// A non-tail SST file failed verification. (A corrupt *tail* SST is
    /// skipped during recovery instead of surfacing here, and a corrupt
    /// filter section alone is quarantined and rebuilt.)
    CorruptSst {
        /// The damaged file.
        path: PathBuf,
        /// Which section failed and how.
        source: Corruption,
    },
    /// The MANIFEST failed verification and directory-scan fallback was not
    /// possible.
    CorruptManifest {
        /// The manifest path.
        path: PathBuf,
        /// Which check failed.
        source: Corruption,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { path, source } => {
                write!(f, "I/O error on {}: {source}", path.display())
            }
            PersistError::CorruptSst { path, source } => {
                write!(f, "corrupt SST file {}: {source}", path.display())
            }
            PersistError::CorruptManifest { path, source } => {
                write!(f, "corrupt manifest {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { source, .. } => Some(source),
            PersistError::CorruptSst { source, .. } => Some(source),
            PersistError::CorruptManifest { source, .. } => Some(source),
        }
    }
}

/// The verified contents of a persisted SST file, ready to be turned back
/// into a live [`crate::SsTable`].
#[derive(Debug)]
pub struct DecodedSst {
    /// Total entry count (verified against the blocks).
    pub num_entries: usize,
    /// How many of the entries are tombstones.
    pub num_tombstones: usize,
    /// Smallest and largest key (verified against the blocks).
    pub key_range: (u64, u64),
    /// Filter family the table was built with.
    pub filter_kind: FilterKind,
    /// Filter space budget the table was built with.
    pub bits_per_key: f64,
    /// The verified data blocks and their fence pointers, in one buffer.
    pub data: DataBlocks,
    /// Every key of the table in ascending order (extracted from the verified
    /// blocks while validating them; used to rebuild the filter if needed).
    pub keys: Vec<u64>,
    /// Persisted filter block bytes, if the family has a wire format.
    pub filter_bytes: Option<Vec<u8>>,
    /// True if the filter section failed verification (checksum mismatch,
    /// truncation after the data section, …). The table data is intact —
    /// callers quarantine the filter and rebuild it from [`DecodedSst::keys`].
    pub filter_damaged: bool,
}

// ---------------------------------------------------------------------------
// Section primitives
// ---------------------------------------------------------------------------

// Little-endian field decoders that cannot panic regardless of slice length
// (missing bytes read as zero). Recovery code runs against adversarial
// on-disk bytes and must stay panic-free, so these replace the usual
// `try_into().unwrap()` array conversions; every caller passes a slice whose
// exact length was already bounds-checked by `take`/`get`.

fn le_fold(bytes: &[u8], width: usize) -> u64 {
    bytes
        .iter()
        .take(width)
        .enumerate()
        .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << (8 * i)))
}

pub(crate) fn le_u16(bytes: &[u8]) -> u16 {
    le_fold(bytes, 2) as u16
}

pub(crate) fn le_u32(bytes: &[u8]) -> u32 {
    le_fold(bytes, 4) as u32
}

pub(crate) fn le_u64(bytes: &[u8]) -> u64 {
    le_fold(bytes, 8)
}

pub(crate) fn push_section(out: &mut Vec<u8>, tag: u32, body: &[u8]) {
    push_section_with(out, tag, |out| out.extend_from_slice(body));
}

/// [`push_section`] whose body `write` appends straight to `out`, so the
/// body is never staged in a buffer of its own.
fn push_section_with(out: &mut Vec<u8>, tag: u32, write: impl FnOnce(&mut Vec<u8>)) {
    out.extend_from_slice(&tag.to_le_bytes());
    let len_at = out.len();
    out.extend_from_slice(&0u64.to_le_bytes());
    let body = out.len();
    write(out);
    let len = (out.len() - body) as u64;
    out[len_at..body].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&out[body..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Read `tag | len | body | crc` at `*cur`, verifying the tag, that the
/// declared length fits the remaining input (the bounded-allocation check)
/// and the CRC. Returns the body slice.
fn take_section<'a>(
    bytes: &'a [u8],
    cur: &mut usize,
    want_tag: u32,
    section: &'static str,
) -> Result<&'a [u8], Corruption> {
    let header = bytes
        .get(*cur..*cur + 12)
        .ok_or_else(|| Corruption::new(section, format!("truncated at offset {}", *cur)))?;
    let tag = le_u32(&header[0..4]);
    if tag != want_tag {
        return Err(Corruption::new(
            section,
            format!("expected section tag {want_tag}, found {tag}"),
        ));
    }
    let len = le_u64(&header[4..12]);
    *cur += 12;
    if len > (bytes.len() - *cur) as u64 {
        return Err(Corruption::new(
            section,
            format!("declared length {len} exceeds remaining input"),
        ));
    }
    let len = len as usize;
    let body = &bytes[*cur..*cur + len];
    *cur += len;
    let stored = le_u32(
        bytes
            .get(*cur..*cur + 4)
            .ok_or_else(|| Corruption::new(section, "truncated checksum"))?,
    );
    *cur += 4;
    let computed = crc32(body);
    if stored != computed {
        return Err(Corruption::new(
            section,
            format!("checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"),
        ));
    }
    Ok(body)
}

fn take<'a>(
    body: &'a [u8],
    cur: &mut usize,
    n: usize,
    section: &'static str,
) -> Result<&'a [u8], Corruption> {
    let out = body
        .get(*cur..cur.saturating_add(n))
        .ok_or_else(|| Corruption::new(section, format!("field truncated at offset {}", *cur)))?;
    *cur += n;
    Ok(out)
}

fn take_u32(body: &[u8], cur: &mut usize, section: &'static str) -> Result<u32, Corruption> {
    Ok(le_u32(take(body, cur, 4, section)?))
}

fn take_u64(body: &[u8], cur: &mut usize, section: &'static str) -> Result<u64, Corruption> {
    Ok(le_u64(take(body, cur, 8, section)?))
}

// ---------------------------------------------------------------------------
// FilterKind codec
// ---------------------------------------------------------------------------

/// Encode a [`FilterKind`] as `(discriminant, parameter)`.
pub(crate) fn encode_filter_kind(kind: FilterKind) -> (u8, u64) {
    match kind {
        FilterKind::BloomRf { max_range } => (0, max_range.to_bits()),
        FilterKind::BloomRfBasic => (1, 0),
        FilterKind::Rosetta { max_range } => (2, max_range),
        FilterKind::Surf => (3, 0),
        FilterKind::SurfHash => (4, 0),
        FilterKind::Bloom => (5, 0),
        FilterKind::PrefixBloom { prefix_shift } => (6, prefix_shift as u64),
        FilterKind::FencePointers => (7, 0),
        FilterKind::Cuckoo => (8, 0),
    }
}

/// Decode a [`FilterKind`] from its `(discriminant, parameter)` pair.
pub(crate) fn decode_filter_kind(tag: u8, param: u64) -> Result<FilterKind, Corruption> {
    Ok(match tag {
        0 => FilterKind::BloomRf {
            max_range: f64::from_bits(param),
        },
        1 => FilterKind::BloomRfBasic,
        2 => FilterKind::Rosetta { max_range: param },
        3 => FilterKind::Surf,
        4 => FilterKind::SurfHash,
        5 => FilterKind::Bloom,
        6 => FilterKind::PrefixBloom {
            prefix_shift: param as u32,
        },
        7 => FilterKind::FencePointers,
        8 => FilterKind::Cuckoo,
        _ => {
            return Err(Corruption::new(
                "meta",
                format!("unknown filter kind discriminant {tag}"),
            ))
        }
    })
}

// ---------------------------------------------------------------------------
// SST file codec
// ---------------------------------------------------------------------------

/// Serialize an SST into the `BSST` v2 file format. `filter_bytes` is the
/// persisted filter block ([`bloomrf::traits::PointRangeFilter::serialize`]),
/// `None` for families that are rebuilt on recovery. Every section is
/// written straight into the one output buffer, sized up front.
pub(crate) fn encode_sst(
    blocks: &DataBlocks,
    num_entries: usize,
    key_range: (u64, u64),
    filter_kind: FilterKind,
    bits_per_key: f64,
    filter_bytes: Option<&[u8]>,
) -> Vec<u8> {
    // Preamble, four section frames, meta, the index's and the data's
    // counts and per-block fields, the filter's presence flag and length.
    let framing = 8 + 4 * 16 + 41 + 4 + 20 * blocks.len() + 4 + 4 * blocks.len() + 9;
    let mut out =
        Vec::with_capacity(framing + blocks.data_len() + filter_bytes.map_or(0, <[u8]>::len));
    out.extend_from_slice(SST_MAGIC);
    out.extend_from_slice(&SST_FORMAT_VERSION.to_le_bytes());

    let mut meta = Vec::new();
    meta.extend_from_slice(&(num_entries as u64).to_le_bytes());
    meta.extend_from_slice(&key_range.0.to_le_bytes());
    meta.extend_from_slice(&key_range.1.to_le_bytes());
    let (kind_tag, kind_param) = encode_filter_kind(filter_kind);
    meta.push(kind_tag);
    meta.extend_from_slice(&kind_param.to_le_bytes());
    meta.extend_from_slice(&bits_per_key.to_bits().to_le_bytes());
    push_section(&mut out, SECTION_META, &meta);

    push_section_with(&mut out, SECTION_INDEX, |idx| {
        idx.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
        let fences = blocks.first_keys().iter().zip(blocks.last_keys());
        for ((first, last), block) in fences.zip(blocks.iter()) {
            idx.extend_from_slice(&first.to_le_bytes());
            idx.extend_from_slice(&last.to_le_bytes());
            // A block opens with its entry count.
            idx.extend_from_slice(&le_u32(block).to_le_bytes());
        }
    });

    push_section_with(&mut out, SECTION_DATA, |data| {
        data.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
        for block in blocks.iter() {
            data.extend_from_slice(&(block.len() as u32).to_le_bytes());
            data.extend_from_slice(block);
        }
    });

    push_section_with(&mut out, SECTION_FILTER, |filter| match filter_bytes {
        Some(bytes) => {
            filter.push(1);
            filter.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            filter.extend_from_slice(bytes);
        }
        None => filter.push(0),
    });
    out
}

/// Parse one data block through the readers' own cursor ([`Records`]),
/// verifying every length against the input and that keys are strictly
/// ascending. Appends the keys to `keys` and returns how many entries are
/// tombstones (meta bit 31 set, length bits zero, no payload). Never panics
/// and never allocates beyond the input size.
fn check_block(data: &[u8], block_idx: usize, keys: &mut Vec<u64>) -> Result<usize, Corruption> {
    let corrupt = |what: String| Corruption::new("data", format!("block {block_idx} {what}"));
    let mut records = Records::new(data);
    let count = records.left as usize;
    // Each entry is at least 12 bytes (key + meta); reject counts the input
    // cannot possibly hold before sizing anything by them.
    if count > records.rest.len() / 12 {
        return Err(corrupt(format!("declares {count} entries, more than fit")));
    }
    keys.reserve(count);
    let (mut prev, mut read, mut tombstones) = (None, 0usize, 0usize);
    for (key, payload) in records.by_ref() {
        if prev.is_some_and(|prev| prev >= key) {
            return Err(corrupt("keys are not strictly ascending".into()));
        }
        tombstones += usize::from(payload.is_none());
        keys.push(key);
        prev = Some(key);
        read += 1;
    }
    if records.left != 0 {
        return Err(corrupt(format!(
            "record {read} is truncated or is a tombstone with non-zero length bits"
        )));
    }
    if !records.rest.is_empty() {
        return Err(corrupt(format!(
            "has {} trailing bytes",
            records.rest.len()
        )));
    }
    Ok(tombstones)
}

/// Decode and fully verify a `BSST` file: magic, version, per-section
/// CRCs, structural validity of every data block and consistency between
/// meta, index and blocks. On success the returned [`DecodedSst`] is safe to
/// serve reads from without further checks — except the filter, whose
/// corruption is survivable and reported via [`DecodedSst::filter_damaged`]
/// rather than failing the decode. Each block is verified in place and
/// copied once, into the table's one data buffer.
pub fn decode_sst(bytes: &[u8]) -> Result<DecodedSst, Corruption> {
    let magic = bytes
        .get(0..4)
        .ok_or_else(|| Corruption::new("magic", "file shorter than the magic"))?;
    if magic != SST_MAGIC {
        return Err(Corruption::new("magic", "missing BSST magic"));
    }
    let version = le_u32(
        bytes
            .get(4..8)
            .ok_or_else(|| Corruption::new("magic", "file shorter than the version"))?,
    );
    if version != SST_FORMAT_VERSION {
        return Err(Corruption::new(
            "magic",
            format!("unsupported SST format version {version}"),
        ));
    }
    let mut cur = 8usize;

    let meta = take_section(bytes, &mut cur, SECTION_META, "meta")?;
    let mut m = 0usize;
    let num_entries = take_u64(meta, &mut m, "meta")? as usize;
    let key_lo = take_u64(meta, &mut m, "meta")?;
    let key_hi = take_u64(meta, &mut m, "meta")?;
    let kind_tag = take(meta, &mut m, 1, "meta")?[0];
    let kind_param = take_u64(meta, &mut m, "meta")?;
    let filter_kind = decode_filter_kind(kind_tag, kind_param)?;
    let bits_per_key = f64::from_bits(take_u64(meta, &mut m, "meta")?);
    if m != meta.len() {
        return Err(Corruption::new("meta", "trailing bytes in meta section"));
    }
    if num_entries == 0 || key_lo > key_hi {
        return Err(Corruption::new("meta", "empty table or inverted key range"));
    }
    if !(bits_per_key.is_finite() && bits_per_key > 0.0) {
        return Err(Corruption::new("meta", "bits_per_key is not positive"));
    }

    let idx = take_section(bytes, &mut cur, SECTION_INDEX, "index")?;
    let mut i = 0usize;
    let n_blocks = take_u32(idx, &mut i, "index")? as usize;
    if n_blocks != (idx.len() - i) / 20 || idx.len() - i != n_blocks * 20 {
        return Err(Corruption::new(
            "index",
            format!("declared {n_blocks} fence pointers, section size disagrees"),
        ));
    }

    let data = take_section(bytes, &mut cur, SECTION_DATA, "data")?;
    let mut d = 0usize;
    let declared_blocks = take_u32(data, &mut d, "data")? as usize;
    if declared_blocks != n_blocks {
        return Err(Corruption::new(
            "data",
            format!("{declared_blocks} blocks, index has {n_blocks} fence pointers"),
        ));
    }
    // Every block costs at least its 4-byte length: the count bounds
    // nothing beyond the input.
    let mut blocks = DataBlocks::with_capacity(data.len() - d, n_blocks.min(data.len() / 4));
    let mut keys: Vec<u64> = Vec::new();
    let mut num_tombstones = 0usize;
    for block_idx in 0..n_blocks {
        let first = take_u64(idx, &mut i, "index")?;
        let last = take_u64(idx, &mut i, "index")?;
        let count = take_u32(idx, &mut i, "index")?;
        let len = take_u32(data, &mut d, "data")? as usize;
        if len > data.len() - d {
            return Err(Corruption::new(
                "data",
                format!("block {block_idx} length {len} exceeds section"),
            ));
        }
        let block = &data[d..d + len];
        d += len;
        let before = keys.len();
        num_tombstones += check_block(block, block_idx, &mut keys)?;
        let (older, block_keys) = keys.split_at(before);
        let matches_index = block_keys.len() == count as usize
            && block_keys.first() == Some(&first)
            && block_keys.last() == Some(&last)
            && older.last().map_or(true, |&prev| prev < first);
        if !matches_index {
            return Err(Corruption::new(
                "data",
                format!("block {block_idx} disagrees with its fence pointer"),
            ));
        }
        blocks.buffer().extend_from_slice(block);
        blocks.seal(first, last);
    }
    if d != data.len() {
        return Err(Corruption::new("data", "trailing bytes in data section"));
    }
    if keys.len() != num_entries || keys.first() != Some(&key_lo) || keys.last() != Some(&key_hi) {
        return Err(Corruption::new(
            "layout",
            "meta entry count / key range disagrees with the blocks",
        ));
    }

    // The filter section is the one part whose corruption is survivable: the
    // data above has already been verified, so any failure from here on
    // (checksum mismatch, torn tail, unknown flag) marks the filter as
    // damaged instead of rejecting the table — the caller quarantines it and
    // rebuilds from the verified keys.
    let parse_filter = |cur: &mut usize| -> Result<Option<Vec<u8>>, Corruption> {
        let filter = take_section(bytes, cur, SECTION_FILTER, "filter")?;
        let mut f = 0usize;
        let filter_bytes = match take(filter, &mut f, 1, "filter")?[0] {
            0 => None,
            1 => {
                let len = take_u64(filter, &mut f, "filter")?;
                if len != (filter.len() - f) as u64 {
                    return Err(Corruption::new(
                        "filter",
                        format!("declared filter length {len} disagrees with section"),
                    ));
                }
                Some(filter[f..].to_vec())
            }
            flag => {
                return Err(Corruption::new(
                    "filter",
                    format!("unknown filter presence flag {flag}"),
                ))
            }
        };
        if filter_bytes.is_none() && f != filter.len() {
            return Err(Corruption::new(
                "filter",
                "trailing bytes in filter section",
            ));
        }
        Ok(filter_bytes)
    };
    let (filter_bytes, filter_damaged) = match parse_filter(&mut cur) {
        Ok(fb) => {
            if cur != bytes.len() {
                return Err(Corruption::new(
                    "layout",
                    format!(
                        "{} trailing bytes after the filter section",
                        bytes.len() - cur
                    ),
                ));
            }
            (fb, false)
        }
        Err(_) => (None, true),
    };

    Ok(DecodedSst {
        num_entries,
        num_tombstones,
        key_range: (key_lo, key_hi),
        filter_kind,
        bits_per_key,
        data: blocks,
        keys,
        filter_bytes,
        filter_damaged,
    })
}

// ---------------------------------------------------------------------------
// MANIFEST codec
// ---------------------------------------------------------------------------

/// One live SST file recorded in the MANIFEST.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ManifestEntry {
    /// The file name (`NNNNNN.sst`).
    pub name: String,
    /// True for verified compaction outputs. A sealed file was read back and
    /// byte-verified before its manifest commit, so a corrupt sealed file at
    /// recovery is real data loss — never a skippable torn tail.
    pub sealed: bool,
}

/// The decoded MANIFEST contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ManifestData {
    /// Live SST files in age order (oldest first).
    pub files: Vec<ManifestEntry>,
    /// Files whose deletion was committed but may not have completed — a
    /// deletion redo log the opener replays.
    pub retired: Vec<String>,
    /// The next SST file number to allocate.
    pub next_file_no: u64,
}

const MANIFEST_FLAG_SEALED: u8 = 1;

/// Serialize the MANIFEST: live SST files in age order with their flags,
/// the retired-file redo log and the next file number.
pub(crate) fn encode_manifest(
    files: &[ManifestEntry],
    retired: &[String],
    next_file_no: u64,
) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(&next_file_no.to_le_bytes());
    body.extend_from_slice(&(files.len() as u32).to_le_bytes());
    for entry in files {
        let bytes = entry.name.as_bytes();
        body.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
        body.extend_from_slice(bytes);
        body.push(if entry.sealed {
            MANIFEST_FLAG_SEALED
        } else {
            0
        });
    }
    body.extend_from_slice(&(retired.len() as u32).to_le_bytes());
    for name in retired {
        let bytes = name.as_bytes();
        body.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
        body.extend_from_slice(bytes);
    }
    let mut out = Vec::new();
    out.extend_from_slice(MANIFEST_MAGIC);
    out.extend_from_slice(&MANIFEST_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out
}

/// Decode and verify the MANIFEST.
pub(crate) fn decode_manifest(bytes: &[u8]) -> Result<ManifestData, Corruption> {
    let section = "manifest";
    let magic = bytes
        .get(0..4)
        .ok_or_else(|| Corruption::new(section, "shorter than the magic"))?;
    if magic != MANIFEST_MAGIC {
        return Err(Corruption::new(section, "missing BMAN magic"));
    }
    let mut cur = 4usize;
    let version = take_u32(bytes, &mut cur, section)?;
    if version != MANIFEST_FORMAT_VERSION {
        return Err(Corruption::new(
            section,
            format!("unsupported manifest version {version}"),
        ));
    }
    let len = take_u64(bytes, &mut cur, section)?;
    if len > (bytes.len().saturating_sub(cur + 4)) as u64 {
        return Err(Corruption::new(
            section,
            format!("declared length {len} exceeds input"),
        ));
    }
    let body = &bytes[cur..cur + len as usize];
    cur += len as usize;
    let stored = take_u32(bytes, &mut cur, section)?;
    let computed = crc32(body);
    if stored != computed {
        return Err(Corruption::new(
            section,
            format!("checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"),
        ));
    }
    if cur != bytes.len() {
        return Err(Corruption::new(
            section,
            "trailing bytes after the manifest",
        ));
    }
    let mut b = 0usize;
    let next_file_no = take_u64(body, &mut b, section)?;
    let take_name = |b: &mut usize| -> Result<String, Corruption> {
        let name_len = le_u16(take(body, b, 2, section)?) as usize;
        let name = take(body, b, name_len, section)?;
        std::str::from_utf8(name)
            .map(str::to_string)
            .map_err(|_| Corruption::new(section, "file name is not UTF-8"))
    };
    let count = take_u32(body, &mut b, section)? as usize;
    if count > (body.len() - b) / 2 {
        return Err(Corruption::new(
            section,
            format!("declares {count} files, more than fit"),
        ));
    }
    let mut files = Vec::with_capacity(count);
    for _ in 0..count {
        let name = take_name(&mut b)?;
        let flags = take(body, &mut b, 1, section)?[0];
        if flags & !MANIFEST_FLAG_SEALED != 0 {
            return Err(Corruption::new(
                section,
                format!("unknown file flags {flags:#04x}"),
            ));
        }
        let sealed = flags & MANIFEST_FLAG_SEALED != 0;
        files.push(ManifestEntry { name, sealed });
    }
    let retired_count = take_u32(body, &mut b, section)? as usize;
    if retired_count > (body.len() - b) / 2 {
        return Err(Corruption::new(
            section,
            format!("declares {retired_count} retired files, more than fit"),
        ));
    }
    let mut retired = Vec::with_capacity(retired_count);
    for _ in 0..retired_count {
        retired.push(take_name(&mut b)?);
    }
    if b != body.len() {
        return Err(Corruption::new(section, "trailing bytes in the body"));
    }
    Ok(ManifestData {
        files,
        retired,
        next_file_no,
    })
}

/// The canonical file name of SST number `n`.
pub(crate) fn sst_file_name(n: u64) -> String {
    format!("{n:06}.sst")
}

/// Parse an SST file name back to its number.
pub(crate) fn parse_sst_file_name(name: &str) -> Option<u64> {
    name.strip_suffix(".sst")?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_rejects_a_length_past_the_end_of_the_address_space() {
        // A file-declared length near usize::MAX (a manifest entry's name
        // length, say) must be a typed error, not an overflow panic.
        let mut cur = 2;
        let err = take(&[0u8; 4], &mut cur, usize::MAX, "manifest").unwrap_err();
        assert_eq!(err.section, "manifest");
        assert_eq!(cur, 2);
    }

    /// The blocks `(first, last, bytes)`, in one buffer.
    fn data_blocks(blocks: &[(u64, u64, &[u8])]) -> DataBlocks {
        let mut data = DataBlocks::with_capacity(0, 0);
        for &(first, last, block) in blocks {
            data.buffer().extend_from_slice(block);
            data.seal(first, last);
        }
        data
    }

    fn sample_sst_bytes() -> Vec<u8> {
        // Two blocks of two entries each.
        let mk_block = |entries: &[(u64, &[u8])]| {
            let mut b = Vec::new();
            b.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for &(k, v) in entries {
                b.extend_from_slice(&k.to_le_bytes());
                b.extend_from_slice(&(v.len() as u32).to_le_bytes());
                b.extend_from_slice(v);
            }
            b
        };
        let blocks = data_blocks(&[
            (10, 20, &mk_block(&[(10, b"aa"), (20, b"bb")])),
            (30, 40, &mk_block(&[(30, b"cc"), (40, b"dd")])),
        ]);
        encode_sst(&blocks, 4, (10, 40), FilterKind::Bloom, 12.0, None)
    }

    #[test]
    fn sst_roundtrip_verifies_and_extracts_keys() {
        let bytes = sample_sst_bytes();
        let decoded = decode_sst(&bytes).unwrap();
        assert_eq!(decoded.num_entries, 4);
        assert_eq!(decoded.key_range, (10, 40));
        assert_eq!(decoded.keys, vec![10, 20, 30, 40]);
        assert_eq!(decoded.filter_kind, FilterKind::Bloom);
        assert_eq!(decoded.bits_per_key, 12.0);
        assert_eq!(decoded.data.first_keys(), [10, 30]);
        assert_eq!(decoded.data.last_keys(), [20, 40]);
        let counts: Vec<u32> = decoded.data.iter().map(le_u32).collect();
        assert_eq!(counts, [2, 2]);
        assert!(decoded.filter_bytes.is_none());
        assert!(!decoded.filter_damaged);
    }

    #[test]
    fn every_single_bit_flip_is_detected_or_quarantined() {
        let bytes = sample_sst_bytes();
        // Flipping any single bit must never go unnoticed: either the decode
        // fails (magic, meta, index or data damage), or — for flips inside
        // the filter section, whose loss is survivable — it succeeds with the
        // filter marked damaged and the data verifiably intact.
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut c = bytes.clone();
                c[byte] ^= 1 << bit;
                match decode_sst(&c) {
                    Err(_) => {}
                    Ok(d) => {
                        assert!(
                            d.filter_damaged,
                            "flip at byte {byte} bit {bit} went undetected"
                        );
                        assert_eq!(d.keys, vec![10, 20, 30, 40]);
                    }
                }
            }
        }
    }

    #[test]
    fn truncations_never_panic_and_preserve_verified_data() {
        let bytes = sample_sst_bytes();
        // A torn tail write leaves a strict prefix. Any prefix must decode to
        // either an error or a table with intact data and a damaged filter.
        for len in 0..bytes.len() {
            match decode_sst(&bytes[..len]) {
                Err(_) => {}
                Ok(d) => {
                    assert!(d.filter_damaged, "prefix {len} accepted silently");
                    assert_eq!(d.keys, vec![10, 20, 30, 40]);
                }
            }
        }
    }

    #[test]
    fn filter_kind_codec_roundtrips() {
        let kinds = [
            FilterKind::BloomRf { max_range: 1e6 },
            FilterKind::BloomRfBasic,
            FilterKind::Rosetta { max_range: 4096 },
            FilterKind::Surf,
            FilterKind::SurfHash,
            FilterKind::Bloom,
            FilterKind::PrefixBloom { prefix_shift: 32 },
            FilterKind::FencePointers,
            FilterKind::Cuckoo,
        ];
        for kind in kinds {
            let (tag, param) = encode_filter_kind(kind);
            assert_eq!(decode_filter_kind(tag, param).unwrap(), kind);
        }
        assert!(decode_filter_kind(99, 0).is_err());
    }

    #[test]
    fn manifest_roundtrips_and_rejects_corruption() {
        let files = vec![
            ManifestEntry {
                name: sst_file_name(1),
                sealed: false,
            },
            ManifestEntry {
                name: sst_file_name(7),
                sealed: true,
            },
        ];
        let retired = vec![sst_file_name(3), sst_file_name(4)];
        let bytes = encode_manifest(&files, &retired, 8);
        assert_eq!(
            decode_manifest(&bytes).unwrap(),
            ManifestData {
                files: files.clone(),
                retired: retired.clone(),
                next_file_no: 8,
            }
        );
        for byte in 0..bytes.len() {
            let mut c = bytes.clone();
            c[byte] ^= 0x40;
            assert!(decode_manifest(&c).is_err(), "flip at byte {byte}");
        }
        for len in 0..bytes.len() {
            assert!(decode_manifest(&bytes[..len]).is_err());
        }
        let empty = decode_manifest(&encode_manifest(&[], &[], 0)).unwrap();
        assert!(empty.files.is_empty() && empty.retired.is_empty());
        assert_eq!(empty.next_file_no, 0);
    }

    #[test]
    fn v1_manifest_is_rejected_as_unsupported_version() {
        // Hand-rolled v1 body: next_file_no | count | (len | name)* — no
        // flags byte, no retired list; magic, length and checksum all valid.
        let mut body = Vec::new();
        body.extend_from_slice(&5u64.to_le_bytes());
        body.extend_from_slice(&2u32.to_le_bytes());
        for name in [sst_file_name(1), sst_file_name(2)] {
            body.extend_from_slice(&(name.len() as u16).to_le_bytes());
            body.extend_from_slice(name.as_bytes());
        }
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MANIFEST_MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&(body.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&body);
        bytes.extend_from_slice(&crc32(&body).to_le_bytes());
        let err = decode_manifest(&bytes).unwrap_err();
        assert_eq!(err.section, "manifest");
        assert_eq!(err.detail, "unsupported manifest version 1");
        // An unsupported future version is rejected the same way.
        let mut future = bytes.clone();
        future[4..8].copy_from_slice(&9u32.to_le_bytes());
        let err = decode_manifest(&future).unwrap_err();
        assert_eq!(err.detail, "unsupported manifest version 9");
    }

    #[test]
    fn tombstone_entries_roundtrip_and_are_validated() {
        // One block: a put, a tombstone, a put.
        let mut b = Vec::new();
        b.extend_from_slice(&3u32.to_le_bytes());
        b.extend_from_slice(&10u64.to_le_bytes());
        b.extend_from_slice(&2u32.to_le_bytes());
        b.extend_from_slice(b"aa");
        b.extend_from_slice(&20u64.to_le_bytes());
        b.extend_from_slice(&TOMBSTONE_FLAG.to_le_bytes());
        b.extend_from_slice(&30u64.to_le_bytes());
        b.extend_from_slice(&2u32.to_le_bytes());
        b.extend_from_slice(b"cc");
        let blocks = data_blocks(&[(10, 30, &b)]);
        let bytes = encode_sst(&blocks, 3, (10, 30), FilterKind::Bloom, 12.0, None);
        let decoded = decode_sst(&bytes).unwrap();
        assert_eq!(decoded.num_entries, 3);
        assert_eq!(decoded.num_tombstones, 1);
        assert_eq!(decoded.keys, vec![10, 20, 30]);

        // A tombstone with non-zero length bits is corrupt.
        let mut bad_block = b.clone();
        // meta of the tombstone entry sits after count(4) + key(8) + meta(4)
        // + "aa"(2) + key(8) = offset 26.
        bad_block[26..30].copy_from_slice(&(TOMBSTONE_FLAG | 1).to_le_bytes());
        let bad = encode_sst(
            &data_blocks(&[(10, 30, &bad_block)]),
            3,
            (10, 30),
            FilterKind::Bloom,
            12.0,
            None,
        );
        let err = decode_sst(&bad).unwrap_err();
        assert!(err.detail.contains("length bits"), "{err}");
    }

    #[test]
    fn v1_sst_is_rejected_as_unsupported_version() {
        let mut bytes = sample_sst_bytes();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        let err = decode_sst(&bytes).unwrap_err();
        assert_eq!(err.section, "magic");
        assert_eq!(err.detail, "unsupported SST format version 1");
    }

    #[test]
    fn sst_file_names_roundtrip() {
        assert_eq!(sst_file_name(7), "000007.sst");
        assert_eq!(parse_sst_file_name("000007.sst"), Some(7));
        assert_eq!(parse_sst_file_name("MANIFEST"), None);
        assert_eq!(parse_sst_file_name("x.sst"), None);
    }

    #[test]
    fn persist_errors_implement_error_with_sources() {
        use std::error::Error as _;
        let corrupt = PersistError::CorruptSst {
            path: PathBuf::from("/tmp/000001.sst"),
            source: Corruption::new("data", "block 0 keys are not strictly ascending"),
        };
        assert!(corrupt.to_string().contains("000001.sst"));
        assert!(corrupt.source().unwrap().to_string().contains("block 0"));
        let io = PersistError::Io {
            path: PathBuf::from("/tmp/MANIFEST"),
            source: io::Error::new(io::ErrorKind::NotFound, "gone"),
        };
        assert!(io.to_string().contains("MANIFEST"));
        assert!(io.source().is_some());
    }
}
