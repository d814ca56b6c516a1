//! On-disk persistent tier of the evaluation cache.
//!
//! A cache directory (the `--cache-dir` flag / `"cache_dir"` spec field)
//! holds [`NUM_BUCKETS`] *segment files* named `seg-XX.bin`, where `XX` is
//! the FNV-1a bucket of the record's key. A segment is a pure append log of
//! length-prefixed records:
//!
//! ```text
//! record := len:u32-LE  payload[len]
//! payload := FORMAT_VERSION:u8  key:String  evaluation:Evaluation
//! ```
//!
//! with `key`/`evaluation` in the [`crate::serdes`] binary encoding. Each
//! record is appended with a single `O_APPEND` write, so records from
//! concurrent processes interleave whole — the tier is shared safely by
//! parallel `msfu` invocations and by every worker of a serve cluster.
//!
//! Opening a tier scans every segment once. Damage is tolerated, never
//! fatal: a record from another format version, a corrupt payload, or a
//! truncated tail (e.g. a process killed mid-append) produces a typed
//! [`PersistWarning`] and the scan moves on — at worst an entry is
//! re-simulated and re-appended. Unknown files in the directory are left
//! alone and ignored.
//!
//! Damage also self-heals. A segment that produced any warning is
//! **quarantined** on open — renamed `seg-XX.bin.quarantined` — so the next
//! open starts from a clean directory while the damaged bytes stay on disk
//! for repair. The one exception is a truncated tail on a segment that
//! grows while it is read: that is another process's append in flight, so
//! the newer bytes load and the segment stays live. [`verify_dir`] reports
//! a directory's health without touching it, and [`compact_dir`] rewrites
//! every live record (salvaging the decodable ones from quarantined
//! segments, dropping dead bytes and duplicate keys) so the directory
//! re-opens warning-free.

use std::collections::HashSet;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::serdes::{BinCodec, CodecError, FORMAT_VERSION};
use crate::Evaluation;

/// Number of hash-bucketed segment files in a cache directory.
pub const NUM_BUCKETS: usize = 16;

/// A non-fatal problem with the persistent tier: a damaged or
/// foreign-version record skipped on open, or an append that could not be
/// written. The cache reports these (to stderr) and keeps going — the
/// persistent tier is an accelerator, never a correctness dependency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistWarning {
    /// A record written by a different codec format version was skipped.
    BadVersion {
        /// Segment file holding the record.
        path: PathBuf,
        /// Byte offset of the record in the segment.
        offset: usize,
        /// The version byte found (the current one is
        /// [`FORMAT_VERSION`]).
        found: u8,
    },
    /// A record's payload failed to decode and was skipped.
    Corrupt {
        /// Segment file holding the record.
        path: PathBuf,
        /// Byte offset of the record in the segment.
        offset: usize,
        /// The decode failure.
        reason: String,
    },
    /// The segment ended mid-record (e.g. a crash mid-append); the partial
    /// tail was ignored.
    TruncatedTail {
        /// Segment file with the partial record.
        path: PathBuf,
        /// Byte offset where the partial record starts.
        offset: usize,
    },
    /// A segment could not be read or appended to.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The I/O error message.
        message: String,
    },
}

impl std::fmt::Display for PersistWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistWarning::BadVersion {
                path,
                offset,
                found,
            } => write!(
                f,
                "{}:{offset}: skipping record with format version {found} (this build reads {FORMAT_VERSION})",
                path.display()
            ),
            PersistWarning::Corrupt {
                path,
                offset,
                reason,
            } => write!(
                f,
                "{}:{offset}: skipping corrupt record: {reason}",
                path.display()
            ),
            PersistWarning::TruncatedTail { path, offset } => write!(
                f,
                "{}:{offset}: ignoring truncated record tail",
                path.display()
            ),
            PersistWarning::Io { path, message } => {
                write!(f, "{}: {message}", path.display())
            }
        }
    }
}

/// FNV-1a of the key, used only to pick a segment bucket (the full key is
/// stored in the record, so hash collisions merely co-locate records).
fn fnv1a(key: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in key.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// File name of bucket `bucket`'s segment.
fn bucket_name(bucket: usize) -> String {
    format!("seg-{bucket:02x}.bin")
}

/// The bucket holding `key`'s record.
fn bucket_of(key: &str) -> usize {
    fnv1a(key) as usize % NUM_BUCKETS
}

/// Path of the segment file that holds `key`'s bucket.
fn segment_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(bucket_name(bucket_of(key)))
}

/// Quarantine name of a segment: `seg-XX.bin` → `seg-XX.bin.quarantined`.
fn quarantine_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".quarantined");
    PathBuf::from(name)
}

/// Handle on an opened cache directory. Created by [`DiskTier::open`],
/// which also returns everything readable on disk; afterwards the tier only
/// appends.
#[derive(Debug)]
pub(crate) struct DiskTier {
    dir: PathBuf,
}

/// What [`DiskTier::open`] found on disk.
#[derive(Default)]
pub(crate) struct DiskContents {
    /// Every decodable `(key, evaluation)` record. Duplicate keys may occur
    /// (two processes racing the same miss both persist it); the records are
    /// identical because keys are content addresses.
    pub entries: Vec<(String, Evaluation)>,
    /// Damage skipped while scanning.
    pub warnings: Vec<PersistWarning>,
    /// Segments renamed `*.quarantined` by this open because they held
    /// damage. Their decodable records are already in `entries`;
    /// [`compact_dir`] salvages and removes the files.
    pub quarantined: Vec<PathBuf>,
}

impl DiskTier {
    /// Opens (creating if necessary) the cache directory and scans every
    /// segment. Segments holding damage are quarantined (renamed
    /// `seg-XX.bin.quarantined`) so the next open starts clean; their
    /// decodable records still load.
    ///
    /// # Errors
    ///
    /// Returns the I/O error message when the directory cannot be created —
    /// the only fatal condition; per-file damage becomes warnings.
    pub(crate) fn open(dir: &Path) -> Result<(DiskTier, DiskContents), String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create cache directory {}: {e}", dir.display()))?;
        let mut contents = DiskContents::default();
        for bucket in 0..NUM_BUCKETS {
            let path = dir.join(bucket_name(bucket));
            let bytes = match std::fs::read(&path) {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => {
                    contents.warnings.push(PersistWarning::Io {
                        path,
                        message: e.to_string(),
                    });
                    continue;
                }
            };
            let segment = scan_live_segment(&path, bytes, || std::fs::read(&path));
            let damaged = !segment.warnings.is_empty();
            contents.entries.extend(segment.entries);
            contents.warnings.extend(segment.warnings);
            if damaged {
                // Quarantine the damaged segment: future appends recreate a
                // clean file, and `compact_dir` salvages what is decodable.
                let to = quarantine_path(&path);
                match std::fs::rename(&path, &to) {
                    Ok(()) => contents.quarantined.push(to),
                    // Another process quarantined it between our read and
                    // rename; its records are loaded either way.
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => contents.warnings.push(PersistWarning::Io {
                        path: path.clone(),
                        message: format!("cannot quarantine damaged segment: {e}"),
                    }),
                }
            }
        }
        let tier = DiskTier {
            dir: dir.to_path_buf(),
        };
        Ok((tier, contents))
    }

    /// Appends one record to its bucket's segment: a single `O_APPEND`
    /// write of the whole length-prefixed record, so concurrent appenders
    /// interleave whole records.
    ///
    /// # Errors
    ///
    /// Returns a typed warning when the segment cannot be opened or written;
    /// the in-memory cache is unaffected.
    pub(crate) fn append(&self, key: &str, evaluation: &Evaluation) -> Result<(), PersistWarning> {
        let mut payload = vec![FORMAT_VERSION];
        key.to_string().encode_into(&mut payload);
        evaluation.encode_into(&mut payload);
        let mut record = (payload.len() as u32).to_bytes();
        record.extend_from_slice(&payload);
        let path = segment_path(&self.dir, key);
        let io = |e: std::io::Error| PersistWarning::Io {
            path: path.clone(),
            message: e.to_string(),
        };
        let mut file = OpenOptions::new()
            .append(true)
            .create(true)
            .open(&path)
            .map_err(io)?;
        file.write_all(&record).map_err(io)
    }
}

/// Health report of a cache directory, from [`verify_dir`].
#[derive(Debug, Default)]
pub struct VerifyReport {
    /// Live segment files scanned.
    pub segments: usize,
    /// Decodable records across live segments.
    pub records: usize,
    /// Total live segment bytes.
    pub bytes: u64,
    /// Damage found in live segments (read-only scan: nothing is renamed).
    pub warnings: Vec<PersistWarning>,
    /// Quarantined segment files awaiting [`compact_dir`].
    pub quarantined: Vec<PathBuf>,
}

impl VerifyReport {
    /// Whether the directory is fully healthy: no damage and nothing
    /// quarantined.
    pub fn is_clean(&self) -> bool {
        self.warnings.is_empty() && self.quarantined.is_empty()
    }
}

/// Scans a cache directory read-only and reports its health. Unlike
/// the cache's own open path this never renames or creates anything.
///
/// # Errors
///
/// Returns a message when `dir` is not a directory.
pub fn verify_dir(dir: &Path) -> Result<VerifyReport, String> {
    if !dir.is_dir() {
        return Err(format!("{} is not a cache directory", dir.display()));
    }
    let mut report = VerifyReport::default();
    for bucket in 0..NUM_BUCKETS {
        let path = dir.join(bucket_name(bucket));
        match std::fs::read(&path) {
            Ok(bytes) => {
                let mut contents = DiskContents::default();
                scan_segment(&path, &bytes, &mut contents);
                report.segments += 1;
                report.records += contents.entries.len();
                report.bytes += bytes.len() as u64;
                report.warnings.extend(contents.warnings);
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => report.warnings.push(PersistWarning::Io {
                path: path.clone(),
                message: e.to_string(),
            }),
        }
        let quarantined = quarantine_path(&path);
        if quarantined.exists() {
            report.quarantined.push(quarantined);
        }
    }
    Ok(report)
}

/// What [`compact_dir`] did.
#[derive(Debug, Default)]
pub struct CompactReport {
    /// Live records written back.
    pub records_kept: usize,
    /// Records dropped because an earlier record had the same key.
    pub duplicates_dropped: usize,
    /// Records recovered from quarantined segments.
    pub salvaged: usize,
    /// Damaged records dropped for good.
    pub damage_dropped: usize,
    /// Quarantined segment files deleted.
    pub quarantined_removed: usize,
    /// Segment bytes before compaction (live + quarantined).
    pub bytes_before: u64,
    /// Segment bytes after compaction.
    pub bytes_after: u64,
}

/// Rewrites a cache directory so it re-opens warning-free: every decodable
/// record from live **and** quarantined segments is kept (first record per
/// key wins — keys are content addresses, so duplicates are identical),
/// damaged bytes are dropped, each bucket is rewritten via a temp file +
/// atomic rename, and quarantined files are deleted.
///
/// Run this offline: records appended by a concurrent process while a
/// bucket is being rewritten would be lost.
///
/// # Errors
///
/// Returns a message when `dir` is not a directory or a rewrite fails (the
/// per-bucket rename is atomic, so an aborted compaction never damages a
/// bucket — at worst some buckets are compacted and others not yet).
pub fn compact_dir(dir: &Path) -> Result<CompactReport, String> {
    if !dir.is_dir() {
        return Err(format!("{} is not a cache directory", dir.display()));
    }
    let mut report = CompactReport::default();
    let mut seen: HashSet<String> = HashSet::new();
    let mut kept: Vec<(String, Evaluation)> = Vec::new();
    // Live segments first so their records win dedup, then quarantined ones.
    for quarantined in [false, true] {
        for bucket in 0..NUM_BUCKETS {
            let mut path = dir.join(bucket_name(bucket));
            if quarantined {
                path = quarantine_path(&path);
            }
            let bytes = match std::fs::read(&path) {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
            };
            report.bytes_before += bytes.len() as u64;
            let mut contents = DiskContents::default();
            scan_segment(&path, &bytes, &mut contents);
            report.damage_dropped += contents.warnings.len();
            for (key, evaluation) in contents.entries {
                if seen.insert(key.clone()) {
                    if quarantined {
                        report.salvaged += 1;
                    }
                    kept.push((key, evaluation));
                } else {
                    report.duplicates_dropped += 1;
                }
            }
        }
    }
    report.records_kept = kept.len();
    // Rewrite each bucket from its surviving records (scan order, so the
    // result is deterministic), then drop the quarantined sources.
    for bucket in 0..NUM_BUCKETS {
        let path = dir.join(bucket_name(bucket));
        let mut bytes = Vec::new();
        for (key, evaluation) in kept.iter().filter(|(k, _)| bucket_of(k) == bucket) {
            let mut payload = vec![FORMAT_VERSION];
            key.encode_into(&mut payload);
            evaluation.encode_into(&mut payload);
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&payload);
        }
        if bytes.is_empty() {
            match std::fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(format!("cannot remove {}: {e}", path.display())),
            }
            continue;
        }
        let tmp = path.with_extension("bin.tmp");
        std::fs::write(&tmp, &bytes).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| format!("cannot replace {}: {e}", path.display()))?;
        report.bytes_after += bytes.len() as u64;
    }
    for bucket in 0..NUM_BUCKETS {
        let path = quarantine_path(&dir.join(bucket_name(bucket)));
        match std::fs::remove_file(&path) {
            Ok(()) => report.quarantined_removed += 1,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("cannot remove {}: {e}", path.display())),
        }
    }
    Ok(report)
}

/// How [`damage_segment`] corrupts a segment (deterministic fault
/// injection — see `msfu_service::faults`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentDamage {
    /// Cut the segment mid-record, as a crash mid-append would
    /// ([`PersistWarning::TruncatedTail`] on the next open).
    Truncate,
    /// Overwrite a record's payload bytes so it no longer decodes
    /// ([`PersistWarning::Corrupt`]).
    FlipBytes,
    /// Rewrite a record's format-version byte to a version this build does
    /// not read ([`PersistWarning::BadVersion`]).
    BadVersion,
}

/// Deterministically damages one segment file so the next open is
/// guaranteed to produce at least one [`PersistWarning`]. `seed` picks the
/// victim record (and the cut point for [`SegmentDamage::Truncate`]); the
/// bucket is taken modulo [`NUM_BUCKETS`]. A missing or empty segment is
/// replaced by a small damaged stub, so injection works even before the
/// bucket holds records. Returns the damaged path.
///
/// # Errors
///
/// Returns the I/O error when the segment cannot be read or written.
pub fn damage_segment(
    dir: &Path,
    bucket: usize,
    damage: SegmentDamage,
    seed: u64,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(bucket_name(bucket % NUM_BUCKETS));
    let mut bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    // Well-framed records as (payload_offset, payload_len).
    let mut records = Vec::new();
    let mut offset = 0usize;
    while bytes.len() >= offset + 4 {
        let len =
            u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes")) as usize;
        if bytes.len() < offset + 4 + len {
            break;
        }
        records.push((offset + 4, len));
        offset += 4 + len;
    }
    if records.is_empty() {
        // Nothing to damage in place: write a stub that scans as damage.
        let stub: &[u8] = match damage {
            SegmentDamage::Truncate => &[0xff, 0xff],
            SegmentDamage::FlipBytes => &[4, 0, 0, 0, FORMAT_VERSION, 0xff, 0xff, 0xff],
            SegmentDamage::BadVersion => &[1, 0, 0, 0, 0xee],
        };
        std::fs::write(&path, stub)?;
        return Ok(path);
    }
    let victim = records[seed as usize % records.len()];
    match damage {
        SegmentDamage::Truncate => {
            // Cut inside the LAST record (truncation is a tail phenomenon);
            // any length in (start-4, start+len) leaves a partial tail.
            let (start, len) = *records.last().expect("non-empty");
            bytes.truncate(start - 3 + seed as usize % (len + 3));
        }
        SegmentDamage::FlipBytes => {
            // Clobber the key-length varint (payload bytes 1..5): 0xff
            // continuation bytes decode to a length far past the segment,
            // so the record is unreadable without touching its framing.
            let (start, len) = victim;
            if len >= 2 {
                for byte in &mut bytes[start + 1..start + len.min(5)] {
                    *byte = 0xff;
                }
            } else {
                // A 0/1-byte payload is already undecodable; leave it.
            }
        }
        SegmentDamage::BadVersion => {
            bytes[victim.0] = 0xee;
        }
    }
    std::fs::write(&path, &bytes)?;
    Ok(path)
}

/// Scans a live segment read as `bytes`. A truncated tail as its only
/// damage may be another process's `O_APPEND` write caught mid-flight
/// rather than a crash, so the segment is read once more (`reread`): if it
/// grew, the newer bytes are scanned instead and a tail that is still
/// partial is skipped without a warning. A truncated tail at an unchanged
/// length stays a warning, and the caller quarantines the segment.
fn scan_live_segment(
    path: &Path,
    bytes: Vec<u8>,
    reread: impl FnOnce() -> std::io::Result<Vec<u8>>,
) -> DiskContents {
    let mut scanned = DiskContents::default();
    scan_segment(path, &bytes, &mut scanned);
    if !matches!(
        scanned.warnings.as_slice(),
        [PersistWarning::TruncatedTail { .. }]
    ) {
        return scanned;
    }
    match reread() {
        Ok(grown) if grown.len() > bytes.len() => {
            let mut rescanned = DiskContents::default();
            scan_segment(path, &grown, &mut rescanned);
            if matches!(
                rescanned.warnings.as_slice(),
                [PersistWarning::TruncatedTail { .. }]
            ) {
                rescanned.warnings.clear();
            }
            rescanned
        }
        _ => scanned,
    }
}

/// Scans one segment's bytes, pushing decodable records and damage warnings
/// into `contents`. The length framing is version-independent, so a bad
/// version or corrupt payload skips one record and the scan continues; only
/// a tail too short for its own framing ends the scan of this segment.
fn scan_segment(path: &Path, bytes: &[u8], contents: &mut DiskContents) {
    let mut offset = 0usize;
    while offset < bytes.len() {
        let mut cursor = &bytes[offset..];
        let len = match u32::decode(&mut cursor) {
            Ok(len) => len as usize,
            Err(_) => {
                contents.warnings.push(PersistWarning::TruncatedTail {
                    path: path.to_path_buf(),
                    offset,
                });
                return;
            }
        };
        if cursor.len() < len {
            contents.warnings.push(PersistWarning::TruncatedTail {
                path: path.to_path_buf(),
                offset,
            });
            return;
        }
        let payload = &cursor[..len];
        match decode_payload(payload) {
            Ok(entry) => contents.entries.push(entry),
            Err(PayloadError::Version(found)) => {
                contents.warnings.push(PersistWarning::BadVersion {
                    path: path.to_path_buf(),
                    offset,
                    found,
                });
            }
            Err(PayloadError::Codec(e)) => {
                contents.warnings.push(PersistWarning::Corrupt {
                    path: path.to_path_buf(),
                    offset,
                    reason: e.to_string(),
                });
            }
        }
        offset += 4 + len;
    }
}

enum PayloadError {
    Version(u8),
    Codec(CodecError),
}

fn decode_payload(mut payload: &[u8]) -> Result<(String, Evaluation), PayloadError> {
    let version = u8::decode(&mut payload).map_err(PayloadError::Codec)?;
    if version != FORMAT_VERSION {
        return Err(PayloadError::Version(version));
    }
    let key = String::decode(&mut payload).map_err(PayloadError::Codec)?;
    let evaluation = Evaluation::decode(&mut payload).map_err(PayloadError::Codec)?;
    if payload.is_empty() {
        Ok((key, evaluation))
    } else {
        Err(PayloadError::Codec(CodecError::TrailingBytes {
            remaining: payload.len(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EvaluationConfig, Strategy};
    use msfu_distill::FactoryConfig;

    fn sample_evaluation() -> Evaluation {
        crate::evaluate(
            &FactoryConfig::single_level(2),
            &Strategy::linear(),
            &EvaluationConfig::default(),
        )
        .unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("msfu-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_then_reopen_round_trips() {
        let dir = temp_dir("roundtrip");
        let evaluation = sample_evaluation();
        {
            let (tier, contents) = DiskTier::open(&dir).unwrap();
            assert!(contents.entries.is_empty());
            assert!(contents.warnings.is_empty());
            tier.append("key-a", &evaluation).unwrap();
            tier.append("key-b", &evaluation).unwrap();
        }
        let (_, contents) = DiskTier::open(&dir).unwrap();
        assert!(contents.warnings.is_empty());
        let mut keys: Vec<&str> = contents.entries.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        assert_eq!(keys, ["key-a", "key-b"]);
        for (_, back) in &contents.entries {
            assert_eq!(back, &evaluation);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_tail_is_tolerated_and_earlier_records_survive() {
        let dir = temp_dir("truncated");
        let evaluation = sample_evaluation();
        {
            let (tier, _) = DiskTier::open(&dir).unwrap();
            tier.append("whole", &evaluation).unwrap();
        }
        // Chop bytes off the segment holding "whole", simulating a crash
        // mid-append of a second record.
        let path = segment_path(&dir, "whole");
        let mut bytes = std::fs::read(&path).unwrap();
        let full = bytes.clone();
        bytes.extend_from_slice(&full[..full.len() / 2]);
        std::fs::write(&path, &bytes).unwrap();
        let (_, contents) = DiskTier::open(&dir).unwrap();
        assert_eq!(contents.entries.len(), 1);
        assert_eq!(contents.entries[0].0, "whole");
        assert!(matches!(
            contents.warnings.as_slice(),
            [PersistWarning::TruncatedTail { .. }]
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_segment_growing_under_a_torn_read_is_loaded_without_a_warning() {
        // Two whole records, as a concurrent appender leaves them; the first
        // read catches the second record half written.
        let evaluation = sample_evaluation();
        let dir = temp_dir("torn");
        let (tier, _) = DiskTier::open(&dir).unwrap();
        tier.append("first", &evaluation).unwrap();
        let path = segment_path(&dir, "first");
        let one = std::fs::read(&path).unwrap();
        tier.append("first", &evaluation).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let torn = full[..one.len() + (full.len() - one.len()) / 2].to_vec();
        let loaded = |c: &DiskContents| c.entries.len();

        // Grown and complete on the second read: both records load.
        let done = scan_live_segment(&path, torn.clone(), || Ok(full.clone()));
        assert_eq!(loaded(&done), 2);
        assert!(done.warnings.is_empty());
        // Grown but still mid-append: the partial tail is skipped silently.
        let longer = full[..full.len() - 1].to_vec();
        let inflight = scan_live_segment(&path, torn.clone(), || Ok(longer));
        assert_eq!(loaded(&inflight), 1);
        assert!(inflight.warnings.is_empty());
        // Unchanged length: a real truncated tail, still reported.
        let stuck = scan_live_segment(&path, torn.clone(), || Ok(torn.clone()));
        assert_eq!(loaded(&stuck), 1);
        assert!(matches!(
            stuck.warnings.as_slice(),
            [PersistWarning::TruncatedTail { .. }]
        ));
        // A failed re-read keeps the first scan's verdict.
        let gone = scan_live_segment(&path, torn.clone(), || {
            Err(std::io::ErrorKind::NotFound.into())
        });
        assert_eq!(gone.warnings.len(), 1);
        // A clean segment is never re-read.
        let clean = scan_live_segment(&path, full.clone(), || unreachable!("clean"));
        assert_eq!(loaded(&clean), 2);
    }

    #[test]
    fn stale_version_record_is_skipped_with_a_typed_warning() {
        let dir = temp_dir("badversion");
        std::fs::create_dir_all(&dir).unwrap();
        // Hand-written segment left by an "older build": one framed record
        // whose payload leads with a version byte this build does not read.
        let payload = [0u8, 1, 2, 3];
        let mut record = (payload.len() as u32).to_le_bytes().to_vec();
        record.extend_from_slice(&payload);
        std::fs::write(dir.join("seg-00.bin"), &record).unwrap();
        let (_, contents) = DiskTier::open(&dir).unwrap();
        assert!(contents.entries.is_empty());
        assert!(
            matches!(
                contents.warnings.as_slice(),
                [PersistWarning::BadVersion { found: 0, .. }]
            ),
            "warnings: {:?}",
            contents.warnings
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_record_is_skipped_and_later_records_survive() {
        let dir = temp_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        // First record: valid framing + version, garbage payload. Second:
        // genuine. The scan must warn on the first and still load the second.
        let garbage = [FORMAT_VERSION, 0xff, 0xff, 0xff];
        let mut bytes = (garbage.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&garbage);
        let evaluation = sample_evaluation();
        let mut payload = vec![FORMAT_VERSION];
        "good".to_string().encode_into(&mut payload);
        evaluation.encode_into(&mut payload);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        std::fs::write(dir.join("seg-07.bin"), &bytes).unwrap();
        let (_, contents) = DiskTier::open(&dir).unwrap();
        assert_eq!(contents.entries.len(), 1);
        assert_eq!(contents.entries[0].0, "good");
        assert_eq!(contents.entries[0].1, evaluation);
        assert!(matches!(
            contents.warnings.as_slice(),
            [PersistWarning::Corrupt { .. }]
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_files_are_ignored() {
        let dir = temp_dir("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("README.txt"), b"not a segment").unwrap();
        let (_, contents) = DiskTier::open(&dir).unwrap();
        assert!(contents.entries.is_empty());
        assert!(contents.warnings.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn buckets_are_stable_and_in_range() {
        // The bucket function is part of the on-disk format: a change would
        // orphan existing records (they would still load — open scans every
        // bucket — but appends would fragment). Pin it.
        assert_eq!(fnv1a("") & 0xffff_ffff, 0x84222325 & 0xffff_ffff);
        for key in ["a", "b", "some|longer|key"] {
            let path = segment_path(Path::new("d"), key);
            let name = path.file_name().unwrap().to_str().unwrap();
            assert!(name.starts_with("seg-") && name.ends_with(".bin"));
        }
    }

    #[test]
    fn damaged_segment_is_quarantined_on_open_and_next_open_is_clean() {
        let dir = temp_dir("quarantine");
        let evaluation = sample_evaluation();
        {
            let (tier, _) = DiskTier::open(&dir).unwrap();
            tier.append("whole", &evaluation).unwrap();
        }
        let path = segment_path(&dir, "whole");
        damage_segment(&dir, bucket_of("whole"), SegmentDamage::Truncate, 7).unwrap();
        let (_, contents) = DiskTier::open(&dir).unwrap();
        assert!(!contents.warnings.is_empty());
        assert_eq!(contents.quarantined, [quarantine_path(&path)]);
        assert!(!path.exists(), "damaged segment must be renamed away");
        assert!(quarantine_path(&path).exists());
        // The next open sees a clean directory (minus the quarantined data).
        let (_, contents) = DiskTier::open(&dir).unwrap();
        assert!(contents.warnings.is_empty());
        assert!(contents.quarantined.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_reports_damage_without_renaming_and_compact_heals() {
        let dir = temp_dir("compact");
        let evaluation = sample_evaluation();
        {
            let (tier, _) = DiskTier::open(&dir).unwrap();
            tier.append("key-a", &evaluation).unwrap();
            tier.append("key-b", &evaluation).unwrap();
            tier.append("key-a", &evaluation).unwrap(); // duplicate
        }
        // Seed 0 → the victim is the first record of the bucket, which is
        // the first "key-a" append regardless of how the keys bucket.
        damage_segment(&dir, bucket_of("key-a"), SegmentDamage::BadVersion, 0).unwrap();
        let report = verify_dir(&dir).unwrap();
        assert!(!report.is_clean());
        assert!(!report.warnings.is_empty());
        assert!(segment_path(&dir, "key-a").exists(), "verify is read-only");

        // Open quarantines the damaged bucket, then compact salvages its
        // surviving records and drops the dead bytes.
        let (_, contents) = DiskTier::open(&dir).unwrap();
        assert!(!contents.quarantined.is_empty());
        let report = compact_dir(&dir).unwrap();
        assert!(report.salvaged >= 1, "report: {report:?}");
        assert!(report.quarantined_removed >= 1);
        assert!(report.damage_dropped >= 1);
        assert!(report.bytes_after < report.bytes_before);

        let after = verify_dir(&dir).unwrap();
        assert!(after.is_clean(), "after compact: {:?}", after.warnings);
        let (_, contents) = DiskTier::open(&dir).unwrap();
        assert!(contents.warnings.is_empty());
        let mut keys: Vec<&str> = contents.entries.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        // "key-a" survives via salvage unless the damage hit it; either way
        // every record that still decodes is kept exactly once.
        assert!(keys.windows(2).all(|w| w[0] != w[1]), "keys: {keys:?}");
        assert!(keys.contains(&"key-b"));
        for (_, back) in &contents.entries {
            assert_eq!(back, &evaluation);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_damage_mode_produces_a_warning_even_on_a_missing_segment() {
        for (tag, damage) in [
            ("dmg-trunc", SegmentDamage::Truncate),
            ("dmg-flip", SegmentDamage::FlipBytes),
            ("dmg-ver", SegmentDamage::BadVersion),
        ] {
            // Populated segment.
            let dir = temp_dir(tag);
            let evaluation = sample_evaluation();
            {
                let (tier, _) = DiskTier::open(&dir).unwrap();
                tier.append("victim", &evaluation).unwrap();
            }
            damage_segment(&dir, bucket_of("victim"), damage, 42).unwrap();
            let (_, contents) = DiskTier::open(&dir).unwrap();
            assert!(
                !contents.warnings.is_empty(),
                "{damage:?} on a populated segment must warn"
            );
            std::fs::remove_dir_all(&dir).unwrap();

            // Missing segment: a damaged stub is created.
            let dir = temp_dir(&format!("{tag}-empty"));
            damage_segment(&dir, 3, damage, 0).unwrap();
            let (_, contents) = DiskTier::open(&dir).unwrap();
            assert!(
                !contents.warnings.is_empty(),
                "{damage:?} on a missing segment must warn"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn warnings_display_without_panicking() {
        let warnings = [
            PersistWarning::BadVersion {
                path: PathBuf::from("seg-00.bin"),
                offset: 0,
                found: 9,
            },
            PersistWarning::Corrupt {
                path: PathBuf::from("seg-00.bin"),
                offset: 4,
                reason: "boom".into(),
            },
            PersistWarning::TruncatedTail {
                path: PathBuf::from("seg-00.bin"),
                offset: 8,
            },
            PersistWarning::Io {
                path: PathBuf::from("seg-00.bin"),
                message: "denied".into(),
            },
        ];
        for warning in warnings {
            assert!(!warning.to_string().is_empty());
        }
    }
}
