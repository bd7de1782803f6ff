//! Write-ahead log and snapshots.
//!
//! Each collection owning a data directory appends every mutation to a WAL
//! before applying it, and can periodically compact the WAL into a
//! snapshot. Records are length-prefixed, CRC32-checksummed JSON frames
//! (`u32` little-endian length, then `u32` little-endian CRC32 of the
//! payload, then the payload), framed by hand. Recovery reads the
//! snapshot then replays the WAL, stopping at the first torn or corrupt
//! frame (the normal shape of a crash mid-append): everything before it
//! is a prefix of acknowledged writes, everything after is untrusted.
//!
//! The writer is crash- and fault-aware: it tracks the last known-good
//! file length, and if an append fails partway (a real I/O error or an
//! injected [`Fault::ShortWrite`]) the torn tail is truncated away before
//! the next append — so a retried append never corrupts the middle of
//! the log. [`crate::fault::FaultPlan`] hooks cover appends, syncs,
//! resets and snapshot writes.

use crate::error::StoreError;
use crate::fault::{Fault, FaultOp, FaultPlan};
use covidkg_json::{parse, Value};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One logged mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A document was inserted.
    Insert(Value),
    /// A document was replaced.
    Update {
        /// Target `_id`.
        id: String,
        /// New document body.
        doc: Value,
    },
    /// A document was removed.
    Delete {
        /// Target `_id`.
        id: String,
    },
}

impl WalRecord {
    /// JSON encoding of this record (the same shape the on-disk WAL
    /// frames carry, and what the replication protocol ships).
    pub fn to_value(&self) -> Value {
        let mut v = Value::Object(Vec::new());
        match self {
            WalRecord::Insert(doc) => {
                v.insert("op", "i");
                v.insert("doc", doc.clone());
            }
            WalRecord::Update { id, doc } => {
                v.insert("op", "u");
                v.insert("id", id.clone());
                v.insert("doc", doc.clone());
            }
            WalRecord::Delete { id } => {
                v.insert("op", "d");
                v.insert("id", id.clone());
            }
        }
        v
    }

    /// Decode a record from its [`WalRecord::to_value`] JSON shape.
    pub fn from_value(v: &Value) -> Result<WalRecord, StoreError> {
        let op = v
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| StoreError::Corrupt("wal record missing op".into()))?;
        let id = || -> Result<String, StoreError> {
            Ok(v.get("id")
                .and_then(Value::as_str)
                .ok_or_else(|| StoreError::Corrupt("wal record missing id".into()))?
                .to_string())
        };
        let doc = || -> Result<Value, StoreError> {
            v.get("doc")
                .cloned()
                .ok_or_else(|| StoreError::Corrupt("wal record missing doc".into()))
        };
        match op {
            "i" => Ok(WalRecord::Insert(doc()?)),
            "u" => Ok(WalRecord::Update { id: id()?, doc: doc()? }),
            "d" => Ok(WalRecord::Delete { id: id()? }),
            other => Err(StoreError::Corrupt(format!("unknown wal op {other:?}"))),
        }
    }
}

/// CRC32 (IEEE 802.3) lookup table, built at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32 checksum of `bytes` (IEEE polynomial, as used by zip/ethernet).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Bytes of frame overhead before the payload (length + checksum).
pub const FRAME_HEADER: usize = 8;

/// Path of the sequence sidecar recording the base sequence of a WAL
/// file (the global sequence number of the last record compacted into
/// the snapshot). Lives next to the WAL so a reset can advance it
/// atomically via tmp + rename.
fn sidecar_path(wal_path: &Path) -> PathBuf {
    wal_path.with_extension("seq")
}

/// Read a WAL's base sequence from its sidecar (0 when none exists —
/// a fresh log starts the global sequence at 1).
pub fn read_base_seq(wal_path: &Path) -> Result<u64, StoreError> {
    let raw = match std::fs::read_to_string(sidecar_path(wal_path)) {
        Ok(s) => s,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e.into()),
    };
    let v = parse(raw.trim()).map_err(|e| StoreError::Corrupt(format!("seq sidecar: {e}")))?;
    v.get("base_seq")
        .and_then(Value::as_i64)
        .map(|n| n.max(0) as u64)
        .ok_or_else(|| StoreError::Corrupt("seq sidecar missing base_seq".into()))
}

fn write_base_seq(wal_path: &Path, base_seq: u64) -> Result<(), StoreError> {
    let path = sidecar_path(wal_path);
    let tmp = path.with_extension("seq.tmp");
    let body = covidkg_json::obj! { "base_seq" => base_seq as i64 }.to_json();
    std::fs::write(&tmp, body)?;
    std::fs::rename(&tmp, &path)?;
    Ok(())
}

/// Path of the fencing-epoch sidecar (`<wal>.epoch`). Records the
/// replication leadership generation under which this node last owned
/// or followed the log, so a restarted node rejoins the cluster at the
/// correct epoch instead of a pre-failover one.
fn epoch_path(wal_path: &Path) -> PathBuf {
    wal_path.with_extension("epoch")
}

/// Read a WAL's fencing epoch from its sidecar (0 when none exists —
/// a fresh node starts in the pre-failover generation).
pub fn read_epoch(wal_path: &Path) -> Result<u64, StoreError> {
    let raw = match std::fs::read_to_string(epoch_path(wal_path)) {
        Ok(s) => s,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e.into()),
    };
    let v = parse(raw.trim()).map_err(|e| StoreError::Corrupt(format!("epoch sidecar: {e}")))?;
    v.get("epoch")
        .and_then(Value::as_i64)
        .map(|n| n.max(0) as u64)
        .ok_or_else(|| StoreError::Corrupt("epoch sidecar missing epoch".into()))
}

/// Persist a WAL's fencing epoch via tmp + rename, the same atomic
/// shape as the seq sidecar: a crash mid-write leaves either the old
/// epoch or the new one, never a torn file.
pub fn write_epoch(wal_path: &Path, epoch: u64) -> Result<(), StoreError> {
    let path = epoch_path(wal_path);
    let tmp = path.with_extension("epoch.tmp");
    let body = covidkg_json::obj! { "epoch" => epoch as i64 }.to_json();
    std::fs::write(&tmp, body)?;
    std::fs::rename(&tmp, &path)?;
    Ok(())
}

/// Appending WAL writer with torn-tail repair.
#[derive(Debug)]
pub struct WalWriter {
    path: PathBuf,
    file: File,
    /// Bytes of the file known to hold complete, checksummed frames.
    committed: u64,
    /// True when a failed append may have left garbage past `committed`.
    tail_dirty: bool,
    /// Global sequence of the record preceding the first frame of the
    /// current file (persisted in the sidecar across resets).
    base_seq: u64,
    /// Global sequence of the last committed record — the durable
    /// replication watermark. Monotonic across [`WalWriter::reset`].
    seq: u64,
    faults: Option<Arc<FaultPlan>>,
}

impl WalWriter {
    /// Open (creating or appending to) the WAL at `path`. Any torn or
    /// corrupt tail left by a previous crash is truncated away so new
    /// appends extend the valid prefix rather than burying records
    /// behind garbage.
    pub fn open(path: impl Into<PathBuf>) -> Result<WalWriter, StoreError> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)?;
        let committed = valid_prefix_len(&raw) as u64;
        if committed < raw.len() as u64 {
            file.set_len(committed)?;
            file.seek(SeekFrom::End(0))?;
        }
        let base_seq = read_base_seq(&path)?;
        let seq = base_seq + frame_ends(&raw[..committed as usize]).len() as u64;
        Ok(WalWriter {
            path,
            file,
            committed,
            tail_dirty: false,
            base_seq,
            seq,
            faults: None,
        })
    }

    /// Global sequence of the last committed record — the durable
    /// replication watermark. Survives resets via the seq sidecar.
    pub fn watermark(&self) -> u64 {
        self.seq
    }

    /// Global sequence of the last record absorbed into the snapshot;
    /// the current file holds exactly records `base_seq + 1 ..= seq`.
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// Bytes of committed frames in the current file.
    pub fn len_bytes(&self) -> u64 {
        self.committed
    }

    /// The committed records currently in the file, paired with their
    /// global sequence numbers, from `from_seq` onward. Returns
    /// [`WalTail::SnapshotNeeded`] when `from_seq` predates the file
    /// (those records were compacted away) — the caller must bootstrap
    /// from a checkpoint instead.
    pub fn tail_from(&self, from_seq: u64) -> Result<WalTail, StoreError> {
        if from_seq <= self.base_seq {
            return Ok(WalTail::SnapshotNeeded {
                base_seq: self.base_seq,
            });
        }
        let mut raw = Vec::new();
        let mut reader = File::open(&self.path)?;
        reader.read_to_end(&mut raw)?;
        raw.truncate(self.committed as usize);
        let records = decode_frames(&raw)?;
        if records.len() as u64 != self.seq - self.base_seq {
            return Err(StoreError::Corrupt(format!(
                "wal holds {} records, watermark implies {}",
                records.len(),
                self.seq - self.base_seq
            )));
        }
        let skip = (from_seq - self.base_seq - 1) as usize;
        Ok(WalTail::Records(
            records
                .into_iter()
                .enumerate()
                .skip(skip)
                .map(|(i, r)| (self.base_seq + 1 + i as u64, r))
                .collect(),
        ))
    }

    /// The log path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Attach (or detach) a fault plan consulted on every append, sync
    /// and reset.
    pub fn set_fault_plan(&mut self, plan: Option<Arc<FaultPlan>>) {
        self.faults = plan;
    }

    /// Truncate a torn tail left by a previously failed append.
    fn repair_tail(&mut self) -> Result<(), StoreError> {
        if self.tail_dirty {
            self.file.set_len(self.committed)?;
            self.file.seek(SeekFrom::End(0))?;
            self.tail_dirty = false;
        }
        Ok(())
    }

    /// Append one record (unbuffered single write; call
    /// [`WalWriter::sync`] for durability), returning the global
    /// sequence number it was assigned. On a transient failure the
    /// record is **not** committed (and no sequence is consumed) and
    /// the call is safe to retry: the next append truncates whatever
    /// the failed write left behind.
    pub fn append(&mut self, record: &WalRecord) -> Result<u64, StoreError> {
        self.repair_tail()?;
        let payload = record.to_value().to_json();
        let frame = frame_bytes(payload.as_bytes());
        if let Some(plan) = self.faults.clone() {
            match plan.decide(FaultOp::WalAppend) {
                Some(Fault::Fail) => return Err(FaultPlan::error(FaultOp::WalAppend)),
                Some(Fault::ShortWrite(frac)) => {
                    // Land a genuine torn tail on disk, then fail.
                    let keep = ((frame.len() as f64 * frac) as usize)
                        .clamp(1, frame.len() - 1);
                    self.tail_dirty = true;
                    let _ = self.file.write_all(&frame[..keep]);
                    return Err(FaultPlan::error(FaultOp::WalAppend));
                }
                Some(Fault::Delay(d)) => std::thread::sleep(d),
                // ENOSPC: nothing reaches the file, and the error is
                // permanent — the caller must not retry.
                Some(Fault::DiskFull) => {
                    return Err(FaultPlan::disk_full_error(FaultOp::WalAppend))
                }
                None => {}
            }
        }
        if let Err(e) = self.file.write_all(&frame) {
            self.tail_dirty = true;
            return Err(e.into());
        }
        self.committed += frame.len() as u64;
        self.seq += 1;
        Ok(self.seq)
    }

    /// Fsync to disk.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if let Some(plan) = &self.faults {
            match plan.decide(FaultOp::WalSync) {
                Some(Fault::Fail | Fault::ShortWrite(_)) => {
                    return Err(FaultPlan::error(FaultOp::WalSync))
                }
                Some(Fault::Delay(d)) => std::thread::sleep(d),
                Some(Fault::DiskFull) => {
                    return Err(FaultPlan::disk_full_error(FaultOp::WalSync))
                }
                None => {}
            }
        }
        self.file.sync_data()?;
        Ok(())
    }

    /// Truncate the log (after a successful snapshot). The global
    /// sequence is preserved: the watermark carries over into the
    /// sidecar as the new base, so sequence numbers never regress
    /// across compaction.
    pub fn reset(&mut self) -> Result<(), StoreError> {
        self.reset_to_seq(self.seq)
    }

    /// Truncate the log and force the global sequence to `seq` (used
    /// when a replica installs a primary checkpoint whose watermark it
    /// must adopt). The sidecar is advanced **before** the truncation:
    /// a crash between the two leaves a forward sequence jump, which
    /// replay tolerates, never a regression, which replication could
    /// not detect.
    pub fn reset_to_seq(&mut self, seq: u64) -> Result<(), StoreError> {
        if let Some(plan) = &self.faults {
            match plan.decide(FaultOp::WalReset) {
                Some(Fault::Fail | Fault::ShortWrite(_)) => {
                    return Err(FaultPlan::error(FaultOp::WalReset))
                }
                Some(Fault::Delay(d)) => std::thread::sleep(d),
                Some(Fault::DiskFull) => {
                    return Err(FaultPlan::disk_full_error(FaultOp::WalReset))
                }
                None => {}
            }
        }
        write_base_seq(&self.path, seq)?;
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.committed = 0;
        self.tail_dirty = false;
        self.base_seq = seq;
        self.seq = seq;
        Ok(())
    }
}

/// Outcome of asking for the WAL tail from a given sequence number.
#[derive(Debug, Clone, PartialEq)]
pub enum WalTail {
    /// The requested records, each paired with its global sequence.
    Records(Vec<(u64, WalRecord)>),
    /// `from_seq` predates the current file — those records were
    /// compacted into the snapshot and the caller must bootstrap from a
    /// checkpoint instead.
    SnapshotNeeded {
        /// Sequence of the last record absorbed into the snapshot.
        base_seq: u64,
    },
}

/// Read-only view over a WAL file and its sequence sidecar, for
/// consumers (the replication listener, offline tooling) that must not
/// hold the appending writer.
#[derive(Debug, Clone)]
pub struct WalReader {
    path: PathBuf,
}

impl WalReader {
    /// Point a reader at `path` (the file may not exist yet — an absent
    /// WAL reads as empty at sequence 0).
    pub fn new(path: impl Into<PathBuf>) -> WalReader {
        WalReader { path: path.into() }
    }

    /// The committed records on disk from `from_seq` onward, or
    /// [`WalTail::SnapshotNeeded`] when that sequence was compacted
    /// away. A torn tail is skipped exactly as crash recovery skips it.
    pub fn tail_from(&self, from_seq: u64) -> Result<WalTail, StoreError> {
        let base_seq = read_base_seq(&self.path)?;
        if from_seq <= base_seq {
            return Ok(WalTail::SnapshotNeeded { base_seq });
        }
        let mut raw = Vec::new();
        match File::open(&self.path) {
            Ok(mut f) => {
                f.read_to_end(&mut raw)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(WalTail::Records(Vec::new()))
            }
            Err(e) => return Err(e.into()),
        }
        raw.truncate(valid_prefix_len(&raw));
        let records = decode_frames(&raw)?;
        let skip = (from_seq - base_seq - 1) as usize;
        Ok(WalTail::Records(
            records
                .into_iter()
                .enumerate()
                .skip(skip)
                .map(|(i, r)| (base_seq + 1 + i as u64, r))
                .collect(),
        ))
    }

    /// The durable watermark implied by the file on disk: base sequence
    /// plus the number of committed frames.
    pub fn watermark(&self) -> Result<u64, StoreError> {
        let base_seq = read_base_seq(&self.path)?;
        let mut raw = Vec::new();
        match File::open(&self.path) {
            Ok(mut f) => {
                f.read_to_end(&mut raw)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(base_seq),
            Err(e) => return Err(e.into()),
        }
        Ok(base_seq + frame_ends(&raw).len() as u64)
    }
}

/// Decode every frame of a fully-valid buffer into records. Callers
/// must already have trimmed the buffer to its valid prefix.
fn decode_frames(raw: &[u8]) -> Result<Vec<WalRecord>, StoreError> {
    let mut buf = raw;
    let mut records = Vec::new();
    while let Some(payload) = next_frame(&mut buf) {
        let text = std::str::from_utf8(payload)
            .map_err(|_| StoreError::Corrupt("wal frame is not UTF-8".into()))?;
        let value = parse(text).map_err(|e| StoreError::Corrupt(format!("wal frame: {e}")))?;
        records.push(WalRecord::from_value(&value)?);
    }
    Ok(records)
}

/// Length-prefix and checksum `payload` into one wire frame.
fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Split the next frame off `buf`, verifying its checksum. `None` when
/// fewer bytes remain than the header promises or the CRC disagrees —
/// either way the tail is untrusted and replay must stop.
fn next_frame<'a>(buf: &mut &'a [u8]) -> Option<&'a [u8]> {
    let header: [u8; 4] = buf.get(..4)?.try_into().ok()?;
    let len = u32::from_le_bytes(header) as usize;
    let sum: [u8; 4] = buf.get(4..8)?.try_into().ok()?;
    let payload = buf.get(FRAME_HEADER..FRAME_HEADER + len)?;
    if crc32(payload) != u32::from_le_bytes(sum) {
        return None;
    }
    *buf = &buf[FRAME_HEADER + len..];
    Some(payload)
}

/// Length of the longest prefix of `raw` made of complete, checksummed
/// frames.
pub(crate) fn valid_prefix_len(raw: &[u8]) -> usize {
    let mut buf = raw;
    while next_frame(&mut buf).is_some() {}
    raw.len() - buf.len()
}

/// Cumulative end offsets of every complete, checksummed frame in `raw`
/// (the last entry equals the valid prefix length). Public so crash
/// harnesses outside this crate can cut a log at exact frame
/// boundaries.
pub fn frame_ends(raw: &[u8]) -> Vec<usize> {
    let mut buf = raw;
    let mut ends = Vec::new();
    while next_frame(&mut buf).is_some() {
        ends.push(raw.len() - buf.len());
    }
    ends
}

/// Read every trustworthy record from a WAL file. A torn or corrupt tail
/// (truncated frame, checksum mismatch — the shapes a crash mid-write
/// leaves behind) stops replay and is reported via the returned flag;
/// corrupt JSON inside a frame whose checksum verifies indicates a
/// writer bug and is a hard error.
pub fn read_wal(path: &Path) -> Result<(Vec<WalRecord>, bool), StoreError> {
    let mut raw = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut raw)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), false)),
        Err(e) => return Err(e.into()),
    }
    let mut buf = &raw[..];
    let mut records = Vec::new();
    while let Some(payload) = next_frame(&mut buf) {
        let text = std::str::from_utf8(payload)
            .map_err(|_| StoreError::Corrupt("wal frame is not UTF-8".into()))?;
        let value = parse(text).map_err(|e| StoreError::Corrupt(format!("wal frame: {e}")))?;
        records.push(WalRecord::from_value(&value)?);
    }
    Ok((records, !buf.is_empty()))
}

/// Write a snapshot of documents to `path` atomically (tmp file +
/// rename). A fault injected anywhere before the rename leaves the old
/// snapshot untouched, so a failed snapshot is always safe to retry.
pub fn write_snapshot<'a>(
    path: &Path,
    docs: impl Iterator<Item = &'a Value>,
) -> Result<usize, StoreError> {
    write_snapshot_with(path, docs, None)
}

/// [`write_snapshot`] with an optional fault plan covering the write.
pub fn write_snapshot_with<'a>(
    path: &Path,
    docs: impl Iterator<Item = &'a Value>,
    faults: Option<&FaultPlan>,
) -> Result<usize, StoreError> {
    let mut truncate_after: Option<f64> = None;
    if let Some(plan) = faults {
        match plan.decide(FaultOp::SnapshotWrite) {
            Some(Fault::Fail) => return Err(FaultPlan::error(FaultOp::SnapshotWrite)),
            Some(Fault::ShortWrite(frac)) => truncate_after = Some(frac),
            Some(Fault::Delay(d)) => std::thread::sleep(d),
            Some(Fault::DiskFull) => {
                return Err(FaultPlan::disk_full_error(FaultOp::SnapshotWrite))
            }
            None => {}
        }
    }
    let tmp = path.with_extension("tmp");
    let mut out = Vec::new();
    let mut n = 0;
    for doc in docs {
        let payload = doc.to_json();
        out.extend_from_slice(&frame_bytes(payload.as_bytes()));
        n += 1;
    }
    if let Some(frac) = truncate_after {
        // Crash mid-snapshot-write: only a prefix of the tmp file lands,
        // and the rename never happens.
        let keep = ((out.len() as f64 * frac) as usize).min(out.len());
        std::fs::write(&tmp, &out[..keep])?;
        return Err(FaultPlan::error(FaultOp::SnapshotWrite));
    }
    let mut f = File::create(&tmp)?;
    f.write_all(&out)?;
    f.sync_data()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    Ok(n)
}

/// Read a snapshot written by [`write_snapshot`].
pub fn read_snapshot(path: &Path) -> Result<Vec<Value>, StoreError> {
    let mut raw = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut raw)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    }
    let mut buf = &raw[..];
    let mut docs = Vec::new();
    while let Some(payload) = next_frame(&mut buf) {
        let text = std::str::from_utf8(payload)
            .map_err(|_| StoreError::Corrupt("snapshot frame is not UTF-8".into()))?;
        docs.push(parse(text).map_err(|e| StoreError::Corrupt(format!("snapshot: {e}")))?);
    }
    if !buf.is_empty() {
        return Err(StoreError::Corrupt("snapshot truncated or corrupt".into()));
    }
    Ok(docs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;
    use covidkg_json::obj;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("covidkg-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn epoch_sidecar_round_trips_and_defaults_to_zero() {
        let dir = tmpdir("epoch");
        let path = dir.join("test.wal");
        assert_eq!(read_epoch(&path).unwrap(), 0);
        write_epoch(&path, 3).unwrap();
        assert_eq!(read_epoch(&path).unwrap(), 3);
        write_epoch(&path, 4).unwrap();
        assert_eq!(read_epoch(&path).unwrap(), 4);
        // Garbage is a corruption report, not a silent zero.
        std::fs::write(epoch_path(&path), "not json").unwrap();
        assert!(read_epoch(&path).is_err());
    }

    #[test]
    fn crc32_reference_vector() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn wal_round_trip() {
        let dir = tmpdir("rt");
        let path = dir.join("test.wal");
        let mut w = WalWriter::open(&path).unwrap();
        let records = vec![
            WalRecord::Insert(obj! { "_id" => "a", "v" => 1 }),
            WalRecord::Update {
                id: "a".into(),
                doc: obj! { "_id" => "a", "v" => 2 },
            },
            WalRecord::Delete { id: "a".into() },
        ];
        for r in &records {
            w.append(r).unwrap();
        }
        w.sync().unwrap();
        let (back, truncated) = read_wal(&path).unwrap();
        assert!(!truncated);
        assert_eq!(back, records);
    }

    #[test]
    fn truncated_tail_is_tolerated() {
        let dir = tmpdir("trunc");
        let path = dir.join("test.wal");
        let mut w = WalWriter::open(&path).unwrap();
        w.append(&WalRecord::Insert(obj! { "_id" => "a" })).unwrap();
        w.append(&WalRecord::Insert(obj! { "_id" => "b" })).unwrap();
        w.sync().unwrap();
        // Chop off the last 3 bytes, simulating a crash mid-write.
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 3]).unwrap();
        let (records, truncated) = read_wal(&path).unwrap();
        assert!(truncated);
        assert_eq!(records.len(), 1);
    }

    #[test]
    fn corrupt_final_frame_is_dropped_not_fatal() {
        let dir = tmpdir("flip");
        let path = dir.join("test.wal");
        let mut w = WalWriter::open(&path).unwrap();
        w.append(&WalRecord::Insert(obj! { "_id" => "a" })).unwrap();
        w.append(&WalRecord::Insert(obj! { "_id" => "b" })).unwrap();
        w.sync().unwrap();
        // Flip one payload byte of the final frame: the checksum must
        // catch it and recovery must keep the clean prefix.
        let mut raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 2;
        raw[last] ^= 0x40;
        std::fs::write(&path, &raw).unwrap();
        let (records, truncated) = read_wal(&path).unwrap();
        assert!(truncated);
        assert_eq!(records.len(), 1);
    }

    #[test]
    fn corrupt_frame_is_an_error() {
        // A frame whose checksum verifies but whose payload is not JSON
        // means the writer itself misbehaved — hard error, not a torn tail.
        let dir = tmpdir("corrupt");
        let path = dir.join("test.wal");
        std::fs::write(&path, frame_bytes(b"not json")).unwrap();
        assert!(matches!(read_wal(&path), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn missing_wal_is_empty() {
        let dir = tmpdir("missing");
        let (records, truncated) = read_wal(&dir.join("nope.wal")).unwrap();
        assert!(records.is_empty() && !truncated);
    }

    #[test]
    fn reset_truncates() {
        let dir = tmpdir("reset");
        let path = dir.join("test.wal");
        let mut w = WalWriter::open(&path).unwrap();
        w.append(&WalRecord::Delete { id: "x".into() }).unwrap();
        w.reset().unwrap();
        let (records, _) = read_wal(&path).unwrap();
        assert!(records.is_empty());
        // Writer still usable after reset.
        w.append(&WalRecord::Delete { id: "y".into() }).unwrap();
        w.sync().unwrap();
        let (records, _) = read_wal(&path).unwrap();
        assert_eq!(records.len(), 1);
    }

    #[test]
    fn reopen_truncates_torn_tail_before_appending() {
        let dir = tmpdir("reopen");
        let path = dir.join("test.wal");
        let mut w = WalWriter::open(&path).unwrap();
        w.append(&WalRecord::Insert(obj! { "_id" => "a" })).unwrap();
        w.sync().unwrap();
        drop(w);
        // Simulate a crash that left half a frame on disk.
        let mut raw = std::fs::read(&path).unwrap();
        raw.extend_from_slice(&[9, 0, 0, 0, 1, 2]);
        std::fs::write(&path, &raw).unwrap();
        // Appending through a fresh writer must not bury the new record
        // behind the garbage.
        let mut w = WalWriter::open(&path).unwrap();
        w.append(&WalRecord::Insert(obj! { "_id" => "b" })).unwrap();
        w.sync().unwrap();
        let (records, truncated) = read_wal(&path).unwrap();
        assert!(!truncated);
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn short_write_fault_repairs_on_retry() {
        let dir = tmpdir("short");
        let path = dir.join("test.wal");
        let mut w = WalWriter::open(&path).unwrap();
        w.append(&WalRecord::Insert(obj! { "_id" => "a" })).unwrap();
        // One guaranteed short write, then clean.
        let plan = FaultPlan::new(FaultConfig {
            fail: 0.0,
            short_write: 1.0,
            delay: 0.0,
            max_faults: 1,
            ..FaultConfig::default()
        });
        w.set_fault_plan(Some(plan));
        let rec = WalRecord::Insert(obj! { "_id" => "b" });
        assert!(matches!(w.append(&rec), Err(StoreError::Transient(_))));
        // The torn bytes are on disk right now…
        let (records, truncated) = read_wal(&path).unwrap();
        assert!(truncated, "short write left a torn tail");
        assert_eq!(records.len(), 1);
        // …and the retry repairs them before re-appending.
        w.append(&rec).unwrap();
        w.sync().unwrap();
        let (records, truncated) = read_wal(&path).unwrap();
        assert!(!truncated);
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn snapshot_round_trip() {
        let dir = tmpdir("snap");
        let path = dir.join("c.snapshot");
        let docs = vec![obj! { "_id" => "a" }, obj! { "_id" => "b", "n" => 2 }];
        let n = write_snapshot(&path, docs.iter()).unwrap();
        assert_eq!(n, 2);
        assert_eq!(read_snapshot(&path).unwrap(), docs);
    }

    #[test]
    fn snapshot_fault_leaves_previous_snapshot_intact() {
        let dir = tmpdir("snapfault");
        let path = dir.join("c.snapshot");
        let old = vec![obj! { "_id" => "a" }];
        write_snapshot(&path, old.iter()).unwrap();
        let plan = FaultPlan::new(FaultConfig {
            fail: 0.0,
            short_write: 1.0,
            delay: 0.0,
            ..FaultConfig::default()
        });
        let new = vec![obj! { "_id" => "a" }, obj! { "_id" => "b" }];
        let err = write_snapshot_with(&path, new.iter(), Some(&plan)).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(read_snapshot(&path).unwrap(), old, "old snapshot untouched");
        plan.disarm();
        write_snapshot_with(&path, new.iter(), Some(&plan)).unwrap();
        assert_eq!(read_snapshot(&path).unwrap(), new);
    }

    #[test]
    fn missing_snapshot_is_empty() {
        let dir = tmpdir("nosnap");
        assert!(read_snapshot(&dir.join("nope")).unwrap().is_empty());
    }

    #[test]
    fn sequence_survives_reset_and_reopen() {
        let dir = tmpdir("seq");
        let path = dir.join("test.wal");
        let mut w = WalWriter::open(&path).unwrap();
        assert_eq!(w.watermark(), 0);
        assert_eq!(w.append(&WalRecord::Insert(obj! { "_id" => "a" })).unwrap(), 1);
        assert_eq!(w.append(&WalRecord::Insert(obj! { "_id" => "b" })).unwrap(), 2);
        w.reset().unwrap();
        // Compaction must not regress the global sequence…
        assert_eq!(w.watermark(), 2);
        assert_eq!(w.base_seq(), 2);
        assert_eq!(w.append(&WalRecord::Insert(obj! { "_id" => "c" })).unwrap(), 3);
        drop(w);
        // …and a reopen recomputes it from sidecar + frames.
        let w = WalWriter::open(&path).unwrap();
        assert_eq!(w.watermark(), 3);
        assert_eq!(w.base_seq(), 2);
    }

    #[test]
    fn tail_from_returns_suffix_with_sequences() {
        let dir = tmpdir("tail");
        let path = dir.join("test.wal");
        let mut w = WalWriter::open(&path).unwrap();
        for id in ["a", "b", "c"] {
            w.append(&WalRecord::Insert(obj! { "_id" => id })).unwrap();
        }
        let WalTail::Records(tail) = w.tail_from(2).unwrap() else {
            panic!("expected records");
        };
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].0, 2);
        assert_eq!(tail[1].0, 3);
        assert_eq!(tail[1].1, WalRecord::Insert(obj! { "_id" => "c" }));
        // Past the watermark: empty, not an error.
        assert_eq!(w.tail_from(4).unwrap(), WalTail::Records(Vec::new()));
    }

    #[test]
    fn tail_from_before_base_requires_snapshot() {
        let dir = tmpdir("tailbase");
        let path = dir.join("test.wal");
        let mut w = WalWriter::open(&path).unwrap();
        w.append(&WalRecord::Insert(obj! { "_id" => "a" })).unwrap();
        w.append(&WalRecord::Insert(obj! { "_id" => "b" })).unwrap();
        w.reset().unwrap();
        w.append(&WalRecord::Insert(obj! { "_id" => "c" })).unwrap();
        assert_eq!(
            w.tail_from(1).unwrap(),
            WalTail::SnapshotNeeded { base_seq: 2 }
        );
        let WalTail::Records(tail) = w.tail_from(3).unwrap() else {
            panic!("expected records");
        };
        assert_eq!(tail, vec![(3, WalRecord::Insert(obj! { "_id" => "c" }))]);
    }

    #[test]
    fn wal_reader_matches_writer_view() {
        let dir = tmpdir("reader");
        let path = dir.join("test.wal");
        let mut w = WalWriter::open(&path).unwrap();
        w.append(&WalRecord::Insert(obj! { "_id" => "a" })).unwrap();
        w.reset().unwrap();
        w.append(&WalRecord::Insert(obj! { "_id" => "b" })).unwrap();
        w.sync().unwrap();
        let r = WalReader::new(&path);
        assert_eq!(r.watermark().unwrap(), 2);
        assert_eq!(r.tail_from(1).unwrap(), WalTail::SnapshotNeeded { base_seq: 1 });
        let WalTail::Records(tail) = r.tail_from(2).unwrap() else {
            panic!("expected records");
        };
        assert_eq!(tail, vec![(2, WalRecord::Insert(obj! { "_id" => "b" }))]);
        // A reader over a missing file is empty at sequence 0.
        let r = WalReader::new(dir.join("nope.wal"));
        assert_eq!(r.watermark().unwrap(), 0);
        assert_eq!(r.tail_from(1).unwrap(), WalTail::Records(Vec::new()));
    }
}
