//! The append-only record log behind both on-disk journals (the
//! `table1`/`table2` `--resume` journal and the serve `cache.journal`).
//! A record is one line, closed by an FNV-1a checksum of all before it:
//!
//! ```text
//! v2<kind><TAB>field<TAB>field...<TAB><fnv1a64 as 16 hex digits>
//! ```
//!
//! `<kind>` (often empty) names the payload. Control characters in
//! fields become spaces. Legacy `v1<kind>` lines carry no checksum.
//! Replay reads bytes: a torn, garbage, non-UTF-8 or checksum-failed
//! line is skipped and counted, never fatal, and after a torn or failed
//! write the next record starts on a fresh line.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// What replay found on open.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Valid records the caller accepted (overrides included).
    pub replayed: usize,
    /// Garbage, torn, non-UTF-8 or checksum-failed lines skipped.
    pub skipped: usize,
}

/// FNV-1a, the record checksum: it guards against torn writes and bit
/// rot, not adversaries (journals are local, trusted state).
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// One checksummed `v2<kind>` record line (no trailing newline).
pub fn encode(kind: &str, fields: &[&str]) -> String {
    let mut line = format!("v2{kind}");
    for field in fields {
        line.push('\t');
        line.extend(field.chars().map(|c| if c.is_control() { ' ' } else { c }));
    }
    let sum = fnv1a64(line.as_bytes());
    format!("{line}\t{sum:016x}")
}

/// A line's `(kind, fields)` when it is a legacy `v1` record or a `v2`
/// record whose checksum holds; `fields` is still tab-separated.
fn decode(line: &str) -> Option<(&str, &str)> {
    let body = if line.starts_with("v1") {
        line
    } else {
        let (body, sum) = line.rsplit_once('\t')?;
        (u64::from_str_radix(sum, 16).ok()? == fnv1a64(body.as_bytes())).then_some(body)?
    };
    let (tag, fields) = body.split_once('\t')?;
    let kind = tag.strip_prefix("v1").or_else(|| tag.strip_prefix("v2"))?;
    Some((kind, fields))
}

/// [`RecordLog::open`]'s replay: a line `apply` rejects counts as
/// skipped, and empty lines are not records at all.
fn replay(bytes: &[u8], mut apply: impl FnMut(&str, &str) -> bool) -> ReplayStats {
    let mut stats = ReplayStats::default();
    for line in bytes.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
        let decoded = std::str::from_utf8(line).ok().and_then(decode);
        if decoded.is_some_and(|(kind, fields)| apply(kind, fields)) {
            stats.replayed += 1;
        } else {
            stats.skipped += 1;
        }
    }
    stats
}

/// An open journal file: appends go straight to the OS, one write per
/// record.
#[derive(Debug)]
pub struct RecordLog {
    path: PathBuf,
    file: File,
    /// Bytes in the file: what replay read plus what was appended since.
    bytes: u64,
    /// The file does not end in a newline (a torn or failed write).
    torn: bool,
    replay: ReplayStats,
}

impl RecordLog {
    /// Opens (creating if absent) the log at `path`, feeding every
    /// record already in it to `apply(kind, fields)`, which returns
    /// whether the payload parsed.
    pub fn open(path: &Path, apply: impl FnMut(&str, &str) -> bool) -> io::Result<RecordLog> {
        let bytes = match std::fs::read(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            read => read?,
        };
        Ok(RecordLog {
            path: path.to_path_buf(),
            file: OpenOptions::new().create(true).append(true).open(path)?,
            bytes: bytes.len() as u64,
            torn: bytes.last().is_some_and(|&b| b != b'\n'),
            replay: replay(&bytes, apply),
        })
    }

    /// What replay found when this log was opened.
    pub fn replay_stats(&self) -> ReplayStats {
        self.replay
    }

    /// Bytes in the file (exact unless an append failed).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Appends one record line and its newline. No fsync: a crash may
    /// lose the record, and replay then skips whatever part landed.
    pub fn append(&mut self, line: &str) -> io::Result<()> {
        self.write(line.as_bytes(), true)
    }

    /// Writes only the first `cut` bytes of `line`, with no newline —
    /// the torn append a crash mid-write leaves, for fault injection.
    pub fn append_torn(&mut self, line: &str, cut: usize) -> io::Result<()> {
        self.write(&line.as_bytes()[..cut.min(line.len())], false)
    }

    fn write(&mut self, record: &[u8], newline: bool) -> io::Result<()> {
        // After a torn or failed write, this record starts a fresh line.
        let lead: &[u8] = if self.torn { b"\n" } else { b"" };
        let tail: &[u8] = if newline { b"\n" } else { b"" };
        let buf = [lead, record, tail].concat();
        // Until the write is known to be whole, the tail may be torn.
        self.torn = true;
        self.file.write_all(&buf)?;
        self.torn = !newline;
        self.bytes += buf.len() as u64;
        Ok(())
    }

    /// Atomically replaces the file with `lines`: the image goes to a
    /// sibling `.tmp`, is synced, and is renamed over the log. A crash
    /// or I/O error mid-rewrite leaves the original file intact.
    pub fn rewrite(&mut self, lines: impl IntoIterator<Item = String>) -> io::Result<()> {
        let mut tmp = self.path.clone().into_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let image: String = lines.into_iter().map(|line| line + "\n").collect();
        let swap = || -> io::Result<()> {
            let mut file = File::create(&tmp)?;
            file.write_all(image.as_bytes())?;
            file.sync_all()?;
            std::fs::rename(&tmp, &self.path)
        };
        swap().inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.bytes = image.len() as u64;
        self.torn = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> PathBuf {
        let path = std::env::temp_dir()
            .join(format!("kiss-record-log-{}-{name}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn line(fields: &[&str]) -> String {
        encode("", fields)
    }

    /// Every valid record's `(kind, fields)` in `bytes`, plus the stats.
    fn records(bytes: &[u8]) -> (Vec<(String, String)>, ReplayStats) {
        let mut out = Vec::new();
        let stats = replay(bytes, |kind, fields| {
            out.push((kind.to_string(), fields.to_string()));
            true
        });
        (out, stats)
    }

    fn stats(replayed: usize, skipped: usize) -> ReplayStats {
        ReplayStats { replayed, skipped }
    }

    #[test]
    fn records_round_trip_with_separators_sanitized() {
        let record = encode("report", &["a\tb", "c\nd\u{7}", "plain"]);
        assert_eq!(record.matches('\t').count(), 4, "{record:?}");
        let (recs, found) = records(format!("{record}\n").as_bytes());
        assert_eq!(recs, [("report".to_string(), "a b\tc d \tplain".to_string())]);
        assert_eq!(found, stats(1, 0));
    }

    #[test]
    fn torn_and_garbage_lines_are_skipped() {
        let torn = line(&["2"]);
        let text = format!(
            "{}\ncomplete garbage\nv9\tfuture\t0\n\n{}",
            line(&["1"]),
            &torn[..torn.len() / 2]
        );
        let (recs, found) = records(text.as_bytes());
        assert_eq!(recs, [(String::new(), "1".to_string())]);
        assert_eq!(found, stats(1, 3), "the empty line is not a record");
    }

    #[test]
    fn interleaved_garbage_between_records_is_skipped() {
        let text: String =
            (0..8).map(|i| format!("{}\ngarbage between records {i}\n", line(&[&i.to_string()]))).collect();
        let (recs, found) = records(text.as_bytes());
        let fields: Vec<_> = recs.into_iter().map(|(_, f)| f).collect();
        assert_eq!(fields, ["0", "1", "2", "3", "4", "5", "6", "7"]);
        assert_eq!(found, stats(8, 8));
    }

    #[test]
    fn no_single_bit_flip_replays_a_different_record() {
        let record = line(&["0123456789abcdef", "race", "42", "detail: no error found"]);
        let (original, _) = records(record.as_bytes());
        for at in 0..record.len() {
            for bit in 0..8 {
                let mut bytes = record.clone().into_bytes();
                bytes[at] ^= 1 << bit;
                // Only a checksum digit's case flip (`a` -> `A`) keeps
                // the record, and then it is the very same record.
                let (recs, _) = records(&bytes);
                assert!(recs.is_empty() || recs == original, "byte {at} bit {bit}: {recs:?}");
            }
        }
    }

    #[test]
    fn a_non_utf8_line_is_skipped_like_any_garbage() {
        let mut bytes = format!("{}\n{}\n", line(&["1"]), line(&["2"])).into_bytes();
        bytes[1] ^= 0x80;
        let (recs, found) = records(&bytes);
        assert_eq!(recs, [(String::new(), "2".to_string())]);
        assert_eq!(found, stats(1, 1));
    }

    #[test]
    fn legacy_v1_lines_replay_without_a_checksum() {
        let (recs, found) = records(b"v1\tdrv\t0\trace\nv1report\t{}\nv2\tno checksum\n");
        assert_eq!(
            recs,
            [
                (String::new(), "drv\t0\trace".to_string()),
                ("report".to_string(), "{}".to_string())
            ]
        );
        assert_eq!(found, stats(2, 1));
    }

    #[test]
    fn rejected_payloads_count_as_skipped() {
        let found = replay(format!("{}\n", line(&["x"])).as_bytes(), |_, _| false);
        assert_eq!(found, stats(0, 1));
    }

    #[test]
    fn appends_after_a_torn_or_failed_write_start_a_fresh_line() {
        let path = tmp_path("torn");
        let two = line(&["2"]);
        std::fs::write(&path, format!("{}\n{}", line(&["1"]), &two[..5])).unwrap();
        {
            let mut log = RecordLog::open(&path, |_, _| true).unwrap();
            assert_eq!(log.replay_stats(), stats(1, 1));
            log.append(&line(&["3"])).unwrap();
            log.append_torn(&two, 4).unwrap();
            log.append(&line(&["4"])).unwrap();
            // A write that fails may have left anything behind.
            let append = std::mem::replace(&mut log.file, File::open(&path).unwrap());
            assert!(log.append(&line(&["lost"])).is_err());
            log.file = append;
            log.append(&line(&["5"])).unwrap();
            assert_eq!(log.bytes(), std::fs::metadata(&path).unwrap().len());
        }
        let mut seen = Vec::new();
        let log = RecordLog::open(&path, |_, fields| {
            seen.push(fields.to_string());
            true
        })
        .unwrap();
        assert_eq!(seen, ["1", "3", "4", "5"]);
        assert_eq!(log.replay_stats(), stats(4, 2));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rewrite_swaps_in_a_new_image_and_keeps_appending() {
        let path = tmp_path("rewrite");
        {
            let mut log = RecordLog::open(&path, |_, _| true).unwrap();
            for i in 0..5 {
                log.append(&line(&[&i.to_string()])).unwrap();
            }
            log.append_torn(&line(&["torn"]), 3).unwrap();
            log.rewrite(["a", "b"].map(|f| line(&[f]))).unwrap();
            log.append(&line(&["c"])).unwrap();
            assert_eq!(log.bytes(), std::fs::metadata(&path).unwrap().len());
        }
        assert!(!path.with_extension("log.tmp").exists());
        let mut seen = Vec::new();
        let log = RecordLog::open(&path, |_, fields| {
            seen.push(fields.to_string());
            true
        })
        .unwrap();
        assert_eq!(seen, ["a", "b", "c"]);
        assert_eq!(log.replay_stats(), stats(3, 0));
        std::fs::remove_file(&path).unwrap();
    }
}
