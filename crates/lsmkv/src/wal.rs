//! Write-ahead log.
//!
//! Every record is appended as one frame. Frame layout (little endian):
//!
//! ```text
//! u32 payload_len | u32 crc32(payload) | payload
//! payload := u64 seq | u8 kind (1=put 0=del) | u32 klen | key | u32 vlen | value
//! ```
//!
//! **Zeroed space.** The log writes its frames into file space it has
//! already filled with zeros, never past the end of the file: when the
//! next frame would cross that end, the log writes out what it buffered
//! and appends another `CHUNK` (1 MiB) of zeros. A payload is at least 17
//! bytes, so a zero length header is the end of the log. The point is
//! the group `sync_data`: over blocks that are already written it flushes
//! data only, where a sync after an append must also commit the new file
//! size to the filesystem's journal. Only the first sync after each
//! extension pays that.
//!
//! **Lifecycle.** [`Wal::open_recovered`] is the only open: it replays the
//! valid prefix and positions the log right after it. A tail of zeros is
//! kept as it is (no truncate, no sync); any other byte after the prefix
//! is a torn or corrupt frame, and the file is truncated to the prefix and
//! synced. [`Wal::reset`] truncates the file to nothing and syncs; the next
//! append extends it again.
//!
//! Replay stops at the first zero header, torn frame or corrupt record
//! (standard LevelDB behaviour for a crashed tail).

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Read};
use std::os::unix::fs::FileExt;
use std::path::Path;

use crate::error::{LsmError, LsmResult};

/// Bytes of zeros one extension appends.
const CHUNK: u64 = 1 << 20;

/// What an extension writes, a sixteenth of a chunk per `pwrite`.
static ZEROS: [u8; (CHUNK / 16) as usize] = [0; (CHUNK / 16) as usize];

/// Frames buffered before they are written out.
const BUF_CAP: usize = 8 << 10;

/// Frame header: payload length and CRC.
const HEADER: usize = 8;

/// CRC-32 (IEEE) lookup tables for slicing-by-8, built at compile time:
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    const POLY: u32 = 0xEDB8_8320;
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE) implemented locally to avoid extra dependencies: eight
/// bytes per step through `CRC_TABLES`, the tail a byte at a time.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// A replayed WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    pub seq: u64,
    pub key: Vec<u8>,
    /// `None` = tombstone.
    pub value: Option<Vec<u8>>,
}

/// Append-side handle of the WAL.
pub struct Wal {
    file: File,
    /// Frames not yet written to the file.
    buf: Vec<u8>,
    /// File offset of `buf[0]`: the end of the frames written out.
    pos: u64,
    /// End of the zeroed space (the file's length), `pos + buf.len()` or
    /// more.
    end: u64,
    /// Whether to fsync after every append (durable but slow; tests use
    /// buffered mode).
    sync: bool,
}

impl Wal {
    /// Append one mutation record.
    pub fn append(&mut self, seq: u64, key: &[u8], value: Option<&[u8]>) -> LsmResult<()> {
        let vlen = value.map_or(0, <[u8]>::len);
        let len = 8 + 1 + 4 + key.len() + 4 + vlen;
        if self.pos + (self.buf.len() + HEADER + len) as u64 > self.end {
            self.extend(HEADER + len)?;
        }
        let start = self.buf.len();
        self.buf.extend_from_slice(&(len as u32).to_le_bytes());
        self.buf.extend_from_slice(&[0; 4]); // the CRC, once the payload is in
        self.buf.extend_from_slice(&seq.to_le_bytes());
        self.buf.push(value.is_some() as u8);
        self.buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(key);
        self.buf.extend_from_slice(&(vlen as u32).to_le_bytes());
        self.buf.extend_from_slice(value.unwrap_or(&[]));
        let crc = crc32(&self.buf[start + HEADER..]);
        self.buf[start + 4..start + HEADER].copy_from_slice(&crc.to_le_bytes());
        if self.sync {
            self.sync()?;
        } else if self.buf.len() >= BUF_CAP {
            self.flush()?;
        }
        Ok(())
    }

    /// Write out the buffer, then append zeros until a `frame`-byte frame
    /// after it fits.
    fn extend(&mut self, frame: usize) -> LsmResult<()> {
        self.flush()?;
        while self.end < self.pos + frame as u64 {
            for part in 0..16 {
                self.file.write_all_at(&ZEROS, self.end + part * ZEROS.len() as u64)?;
            }
            self.end += CHUNK;
        }
        Ok(())
    }

    /// Write buffered records to the OS.
    pub fn flush(&mut self) -> LsmResult<()> {
        if !self.buf.is_empty() {
            self.file.write_all_at(&self.buf, self.pos)?;
            self.pos += self.buf.len() as u64;
            self.buf.clear();
        }
        Ok(())
    }

    /// Flush and fsync: everything appended so far survives a crash.
    /// Callers batching durability (group fsync) use this instead of
    /// opening the log in `sync` mode.
    pub fn sync(&mut self) -> LsmResult<()> {
        self.flush()?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Truncate the log (once its contents are confirmed elsewhere) and
    /// sync the truncation: once this returns, no crash brings the dropped
    /// records back.
    pub fn reset(&mut self) -> LsmResult<()> {
        self.buf.clear();
        self.file.set_len(0)?;
        self.file.sync_data()?;
        self.pos = 0;
        self.end = 0;
        Ok(())
    }

    /// Crash-safe open, creating the file if it is missing: replay the
    /// valid prefix, handing each intact record to `each` in log order, and
    /// return an append handle positioned right after the last one. A tail of
    /// zeros stays (it is space the log already owns); a torn or corrupt
    /// tail is truncated away and the truncation synced, so appends never
    /// land behind bytes the next replay would stop at.
    pub fn open_recovered(path: &Path, sync: bool, each: impl FnMut(WalRecord)) -> LsmResult<Self> {
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let (valid, zero_tail) = replay_frames(&file, each)?;
        let mut end = file.metadata()?.len();
        if !zero_tail {
            file.set_len(valid)?;
            file.sync_data()?;
            end = valid;
        }
        Ok(Self { file, buf: Vec::new(), pos: valid, end, sync })
    }
}

impl Drop for Wal {
    /// Best effort, as a `BufWriter` would: `flush` or `sync` first to see
    /// the error.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Hand the intact records at the start of `file` to `each`; returns the
/// length they span and whether only zeros follow them. The file is read
/// through a small buffer, one frame at a time, never whole.
fn replay_frames(file: &File, mut each: impl FnMut(WalRecord)) -> LsmResult<(u64, bool)> {
    let size = file.metadata()?.len();
    let mut r = BufReader::new(file);
    let (mut pos, mut payload) = (0u64, Vec::new());
    loop {
        let mut header = [0u8; HEADER];
        let rest = size - pos;
        let got = rest.min(HEADER as u64) as usize;
        r.read_exact(&mut header[..got])?;
        let len = u32::from_le_bytes(header[..4].try_into().expect("4-byte slice")) as u64;
        // The zeroed space (a zero length), a partial header or a torn frame.
        if got < HEADER || len == 0 || len > rest - HEADER as u64 {
            let zeros = header.iter().all(|&b| b == 0) && only_zeros(r)?;
            return Ok((pos, zeros));
        }
        let crc = u32::from_le_bytes(header[4..].try_into().expect("4-byte slice"));
        payload.resize(len as usize, 0);
        r.read_exact(&mut payload)?;
        if crc32(&payload) != crc {
            return Ok((pos, false)); // corrupt tail
        }
        match parse_payload(&payload) {
            Some(rec) => each(rec),
            None => {
                return Err(LsmError::Corrupt(format!(
                    "wal record at offset {pos} has valid crc but bad framing"
                )))
            }
        }
        pos += HEADER as u64 + len;
    }
}

/// Whether `r` holds nothing but zeros to its end.
fn only_zeros(mut r: impl BufRead) -> LsmResult<bool> {
    loop {
        let buf = r.fill_buf()?;
        if buf.is_empty() {
            return Ok(true);
        }
        if buf.iter().any(|&b| b != 0) {
            return Ok(false);
        }
        let n = buf.len();
        r.consume(n);
    }
}

fn parse_payload(p: &[u8]) -> Option<WalRecord> {
    if p.len() < 13 {
        return None;
    }
    let seq = u64::from_le_bytes(p[0..8].try_into().ok()?);
    let kind = p[8];
    let klen = u32::from_le_bytes(p[9..13].try_into().ok()?) as usize;
    let key_end = 13 + klen;
    if p.len() < key_end + 4 {
        return None;
    }
    let key = p[13..key_end].to_vec();
    let vlen = u32::from_le_bytes(p[key_end..key_end + 4].try_into().ok()?) as usize;
    if p.len() != key_end + 4 + vlen {
        return None;
    }
    let value = match kind {
        1 => Some(p[key_end + 4..].to_vec()),
        0 => {
            if vlen != 0 {
                return None;
            }
            None
        }
        _ => return None,
    };
    Some(WalRecord { seq, key, value })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lsmkv-wal-{}-{}", name, std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn open(path: &Path) -> Wal {
        open_with_records(path).0
    }

    fn open_with_records(path: &Path) -> (Wal, Vec<WalRecord>) {
        let mut records = Vec::new();
        let wal = Wal::open_recovered(path, false, |rec| records.push(rec)).unwrap();
        (wal, records)
    }

    /// Every intact record of a log file (missing file = empty). A
    /// torn/corrupt tail ends replay silently.
    fn replay(path: &Path) -> LsmResult<Vec<WalRecord>> {
        Ok(replay_prefix(path)?.0)
    }

    /// Every intact record, and the byte length of the valid prefix: the
    /// offset at which the zero tail or the torn/corrupt tail begins.
    fn replay_prefix(path: &Path) -> LsmResult<(Vec<WalRecord>, u64)> {
        let file = match File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
            Err(e) => return Err(e.into()),
        };
        let mut records = Vec::new();
        let (valid, _) = replay_frames(&file, |rec| records.push(rec))?;
        Ok((records, valid))
    }

    /// Overwrite `bytes` at `offset` of the file, as a crash mid-write
    /// would leave them.
    fn write_at(path: &Path, offset: u64, bytes: &[u8]) {
        let f = OpenOptions::new().write(true).open(path).unwrap();
        f.write_all_at(bytes, offset).unwrap();
    }

    fn len(path: &Path) -> u64 {
        std::fs::metadata(path).unwrap().len()
    }

    /// The CRC as the log computed it before slicing-by-8: the test oracle.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        const POLY: u32 = 0xEDB8_8320;
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_vector() {
        // Standard test vector: CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_slicing_by_8_matches_the_bitwise_loop() {
        let data: Vec<u8> =
            (0..308u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for start in 0..8 {
            for len in 0..=300 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn append_and_replay() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("wal.log");
        {
            let mut w = open(&path);
            w.append(1, b"a", Some(b"va")).unwrap();
            w.append(2, b"b", None).unwrap();
            w.append(3, b"c", Some(&[])).unwrap();
            w.flush().unwrap();
        }
        let recs = replay(&path).unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0], WalRecord { seq: 1, key: b"a".to_vec(), value: Some(b"va".to_vec()) });
        assert_eq!(recs[1].value, None);
        assert_eq!(recs[2].value.as_deref(), Some(&[][..]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_replays_empty() {
        let dir = tmpdir("missing");
        assert!(replay(&dir.join("nope.log")).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_zero_tailed_log_replays_its_frames_and_stops_without_corrupt() {
        let dir = tmpdir("zero-tail");
        let path = dir.join("wal.log");
        let mut w = open(&path);
        w.append(1, b"a", Some(b"va")).unwrap();
        w.append(2, b"b", None).unwrap();
        w.sync().unwrap();
        assert_eq!(len(&path), CHUNK, "frames go into zeroed space");
        let (recs, valid) = replay_prefix(&path).unwrap();
        assert_eq!(recs.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![1, 2]);
        assert!(valid < CHUNK);
        drop(w);
        // Reopening keeps the clean tail and appends right after frame 2.
        let (mut w, recs) = open_with_records(&path);
        assert_eq!(recs.len(), 2);
        assert_eq!(len(&path), CHUNK, "a zero tail is not truncated");
        w.append(3, b"c", Some(b"vc")).unwrap();
        w.sync().unwrap();
        let recs = replay(&path).unwrap();
        assert_eq!(recs.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![1, 2, 3]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_ignored() {
        let dir = tmpdir("torn");
        let path = dir.join("wal.log");
        {
            let mut w = open(&path);
            w.append(1, b"a", Some(b"va")).unwrap();
            w.flush().unwrap();
        }
        // Garbage that looks like the start of a record, after the log.
        let (_, end) = replay_prefix(&path).unwrap();
        write_at(&path, end, &[200, 0, 0, 0, 1, 2, 3, 4, 9, 9]);
        let recs = replay(&path).unwrap();
        assert_eq!(recs.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_crc_ends_replay() {
        let dir = tmpdir("crc");
        let path = dir.join("wal.log");
        {
            let mut w = open(&path);
            w.append(1, b"a", Some(b"va")).unwrap();
            w.append(2, b"b", Some(b"vb")).unwrap();
            w.flush().unwrap();
        }
        // Flip the last byte of the second record's payload.
        let (_, end) = replay_prefix(&path).unwrap();
        let mut data = std::fs::read(&path).unwrap();
        let last = end as usize - 1;
        data[last] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        let recs = replay(&path).unwrap();
        assert_eq!(recs.len(), 1, "replay must stop at the corrupt record");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partial_header_tail_is_ignored() {
        let dir = tmpdir("partial-header");
        let path = dir.join("wal.log");
        {
            let mut w = open(&path);
            w.append(1, b"a", Some(b"va")).unwrap();
            w.sync().unwrap();
        }
        // A crash mid-header: fewer than 8 bytes of frame landed.
        let (_, end) = replay_prefix(&path).unwrap();
        write_at(&path, end, &[7, 0, 0]);
        let (recs, valid) = replay_prefix(&path).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(valid, end);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_only_file_replays_empty() {
        let dir = tmpdir("garbage");
        let path = dir.join("wal.log");
        std::fs::write(&path, [0xAB; 37]).unwrap();
        let (recs, valid) = replay_prefix(&path).unwrap();
        assert!(recs.is_empty());
        assert_eq!(valid, 0);
        // Recovery truncates the garbage entirely.
        let (mut w, recs) = open_with_records(&path);
        assert!(recs.is_empty());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        w.append(1, b"a", Some(b"va")).unwrap();
        w.sync().unwrap();
        assert_eq!(replay(&path).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression: records appended after recovering from a torn tail must
    /// be replayable. Appends that resume behind the torn bytes (here past
    /// the end of the zeroed space) vanish on the next replay.
    #[test]
    fn append_after_torn_tail_recovery_is_replayable() {
        let dir = tmpdir("torn-append");
        let path = dir.join("wal.log");
        {
            let mut w = open(&path);
            w.append(1, b"a", Some(b"va")).unwrap();
            w.sync().unwrap();
        }
        // Torn tail: a frame header promising more bytes than exist.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[200, 0, 0, 0, 1, 2, 3, 4, 9, 9]).unwrap();
        }
        let (mut w, recs) = open_with_records(&path);
        assert_eq!(recs.len(), 1, "valid prefix survives recovery");
        w.append(2, b"b", Some(b"vb")).unwrap();
        w.sync().unwrap();
        let recs = replay(&path).unwrap();
        assert_eq!(
            recs.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![1, 2],
            "post-recovery appends must not hide behind the torn tail"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A crash mid-frame inside the zeroed space: the frame's header and
    /// part of its payload landed. Recovery drops the frame, and what is
    /// appended next replays.
    #[test]
    fn a_torn_frame_in_the_zeroed_space_is_dropped_and_the_next_append_replays() {
        let dir = tmpdir("torn-zeroed");
        let path = dir.join("wal.log");
        {
            let mut w = open(&path);
            w.append(1, b"a", Some(b"va")).unwrap();
            w.sync().unwrap();
        }
        let (_, end) = replay_prefix(&path).unwrap();
        // Frame 2's header and its first five payload bytes.
        write_at(&path, end, &[20, 0, 0, 0, 0xDE, 0xAD, 0xBE, 0xEF, 2, 0, 0, 0, 0]);
        let (mut w, recs) = open_with_records(&path);
        assert_eq!(recs.len(), 1);
        assert_eq!(len(&path), end, "the torn frame is truncated away");
        w.append(3, b"c", Some(b"vc")).unwrap();
        w.sync().unwrap();
        drop(w);
        let (_, recs) = open_with_records(&path);
        assert_eq!(recs.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![1, 3]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Same regression for a CRC-corrupt (rather than short) tail.
    #[test]
    fn append_after_corrupt_tail_recovery_is_replayable() {
        let dir = tmpdir("crc-append");
        let path = dir.join("wal.log");
        {
            let mut w = open(&path);
            w.append(1, b"a", Some(b"va")).unwrap();
            w.append(2, b"b", Some(b"vb")).unwrap();
            w.sync().unwrap();
        }
        // Corrupt the second record's payload; its framing stays intact.
        let (_, end) = replay_prefix(&path).unwrap();
        let mut data = std::fs::read(&path).unwrap();
        let last = end as usize - 1;
        data[last] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();

        let (mut w, recs) = open_with_records(&path);
        assert_eq!(recs.len(), 1, "replay stops cleanly before the corrupt record");
        w.append(3, b"c", Some(b"vc")).unwrap();
        w.sync().unwrap();
        let recs = replay(&path).unwrap();
        assert_eq!(recs.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![1, 3]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reset_truncates() {
        let dir = tmpdir("reset");
        let path = dir.join("wal.log");
        let mut w = open(&path);
        w.append(1, b"a", Some(b"va")).unwrap();
        w.reset().unwrap();
        w.append(2, b"b", Some(b"vb")).unwrap();
        w.flush().unwrap();
        let recs = replay(&path).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].seq, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The log grows a chunk at a time — also for a frame larger than one —
    /// and `reset` gives all of it back: a reopen replays only what was
    /// appended after the reset.
    #[test]
    fn reset_after_growing_past_a_chunk_replays_only_post_reset_frames() {
        let dir = tmpdir("reset-grown");
        let path = dir.join("wal.log");
        let mut w = open(&path);
        let value = vec![0x5A; 4096];
        for seq in 1..=300 {
            w.append(seq, b"k", Some(&value)).unwrap();
        }
        w.sync().unwrap();
        assert_eq!(len(&path), 2 * CHUNK);
        let big = vec![0xC3; CHUNK as usize + 1];
        w.append(301, b"big", Some(&big)).unwrap();
        w.sync().unwrap();
        assert_eq!(len(&path), 3 * CHUNK, "zeros up to the chunk past the frame's end");
        assert_eq!(replay(&path).unwrap().len(), 301);

        w.reset().unwrap();
        assert_eq!(len(&path), 0);
        w.append(400, b"x", Some(b"vx")).unwrap();
        w.append(401, b"y", None).unwrap();
        w.sync().unwrap();
        drop(w);
        let (_, recs) = open_with_records(&path);
        assert_eq!(recs.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![400, 401]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
