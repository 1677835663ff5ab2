//! Append-only journal of per-field check outcomes.
//!
//! A full corpus run is hundreds of supervised checks; if the process
//! is killed halfway (machine reclaimed, ^C, OOM), re-running from
//! scratch wastes everything already computed. `table1`/`table2` (and
//! any caller of
//! [`crate::table::check_corpus_supervised`]) append one record per
//! completed `(driver, field)` pair; `--resume` replays the journal and
//! skips those pairs.
//!
//! The file is a [`kiss_obs::record_log`], so every record is one
//! checksummed line and a torn, garbage or bit-flipped line is skipped
//! on load: a journal can only *under*-report completed work, never
//! corrupt a resumed run. This module owns the two payloads:
//!
//! ```text
//! v2<TAB><driver><TAB><field-index><TAB><outcome><TAB><checksum>
//! v2report<TAB><RunReport as one-line JSON><TAB><checksum>
//! ```
//!
//! where `<outcome>` is `race`, `norace`, `inconclusive:<reason>`,
//! `crashed:<cause>`, or `failed:<cause>`. Each session of a corpus
//! run appends the [`RunReport`] covering the checks *it* performed; a
//! resumed run merges the stored reports with its own so the final
//! metrics match an uninterrupted run. Journals written before the
//! checksum (`v1`, `v1report`) still replay.

use std::collections::HashMap;
use std::path::Path;

use kiss_obs::record_log::{self, RecordLog};
use kiss_obs::RunReport;
use kiss_seq::BoundReason;

use crate::table::FieldOutcome;

/// A resumable record of completed per-field checks.
#[derive(Debug)]
pub struct Journal {
    log: RecordLog,
    completed: HashMap<(String, usize), FieldOutcome>,
    reports: Vec<RunReport>,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path` and loads every
    /// well-formed record already in it.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Journal> {
        let mut completed = HashMap::new();
        let mut reports = Vec::new();
        let log = RecordLog::open(path.as_ref(), |kind, fields| match kind {
            "" => parse_field(fields).map(|(key, outcome)| completed.insert(key, outcome)).is_some(),
            // A malformed report is dropped like any other garbage:
            // metrics under-report, results stay intact.
            "report" => RunReport::from_json(fields).map(|r| reports.push(r)).is_some(),
            _ => false,
        })?;
        Ok(Journal { log, completed, reports })
    }

    /// Number of completed `(driver, field)` records loaded or written.
    pub fn len(&self) -> usize {
        self.completed.len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.completed.is_empty()
    }

    /// Damaged lines (torn, garbage, checksum-failed) skipped on open.
    pub fn skipped(&self) -> usize {
        self.log.replay_stats().skipped
    }

    /// The recorded outcome for a `(driver, field)` pair, if any.
    pub fn lookup(&self, driver: &str, field: usize) -> Option<FieldOutcome> {
        self.completed.get(&(driver.to_string(), field)).cloned()
    }

    /// Appends a record and flushes it to disk immediately, so a kill
    /// right after a slow check loses at most the in-flight field.
    pub fn record(
        &mut self,
        driver: &str,
        field: usize,
        outcome: &FieldOutcome,
    ) -> std::io::Result<()> {
        let line = record_log::encode("", &[driver, &field.to_string(), &encode_outcome(outcome)]);
        self.log.append(&line)?;
        self.completed.insert((driver.to_string(), field), outcome.clone());
        Ok(())
    }

    /// Appends one session's [`RunReport`] and flushes it, so a
    /// `--resume` of a later session can account for this session's
    /// checks in its merged metrics.
    pub fn record_report(&mut self, report: &RunReport) -> std::io::Result<()> {
        self.log.append(&record_log::encode("report", &[&report.to_json()]))?;
        self.reports.push(report.clone());
        Ok(())
    }

    /// All stored reports merged with `current` — the metrics of the
    /// whole (possibly multi-session) run. Only reports loaded at
    /// [`Journal::open`] are merged, so record `current` *after*
    /// asking for the merge.
    pub fn merged_report(&self, current: &RunReport) -> RunReport {
        let mut merged = RunReport::default();
        for r in &self.reports {
            merged.merge(r);
        }
        merged.merge(current);
        merged
    }
}

fn encode_outcome(outcome: &FieldOutcome) -> String {
    match outcome {
        FieldOutcome::Race => "race".to_string(),
        FieldOutcome::NoRace => "norace".to_string(),
        FieldOutcome::Inconclusive(reason) => format!("inconclusive:{}", reason.as_str()),
        FieldOutcome::Crashed { cause } => format!("crashed:{cause}"),
        FieldOutcome::Failed { cause } => format!("failed:{cause}"),
    }
}

fn decode_outcome(s: &str) -> Option<FieldOutcome> {
    match s.split_once(':') {
        None if s == "race" => Some(FieldOutcome::Race),
        None if s == "norace" => Some(FieldOutcome::NoRace),
        Some(("inconclusive", reason)) => BoundReason::parse(reason).map(FieldOutcome::Inconclusive),
        Some(("crashed", cause)) => Some(FieldOutcome::Crashed { cause: cause.to_string() }),
        Some(("failed", cause)) => Some(FieldOutcome::Failed { cause: cause.to_string() }),
        _ => None,
    }
}

/// A field record's payload: `<driver>\t<field-index>\t<outcome>`.
fn parse_field(fields: &str) -> Option<((String, usize), FieldOutcome)> {
    let mut parts = fields.splitn(3, '\t');
    let driver = parts.next()?.to_string();
    let field: usize = parts.next()?.parse().ok()?;
    let outcome = decode_outcome(parts.next()?)?;
    Some(((driver, field), outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("kiss-journal-test-{}-{name}.log", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn all_outcomes() -> Vec<FieldOutcome> {
        vec![
            FieldOutcome::Race,
            FieldOutcome::NoRace,
            FieldOutcome::Inconclusive(BoundReason::Steps),
            FieldOutcome::Inconclusive(BoundReason::Deadline),
            FieldOutcome::Crashed { cause: "index out of bounds: len 3".to_string() },
            FieldOutcome::Failed { cause: "race spec `x` did not resolve".to_string() },
        ]
    }

    #[test]
    fn outcomes_round_trip_through_reopen() {
        let path = tmp_path("roundtrip");
        {
            let mut j = Journal::open(&path).unwrap();
            for (i, o) in all_outcomes().iter().enumerate() {
                j.record("drv", i, o).unwrap();
            }
        }
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), all_outcomes().len());
        for (i, o) in all_outcomes().iter().enumerate() {
            assert_eq!(j.lookup("drv", i).as_ref(), Some(o), "field {i}");
        }
        assert_eq!(j.lookup("other", 0), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_and_garbage_lines_are_ignored() {
        let path = tmp_path("torn");
        std::fs::write(
            &path,
            "v1\tdrv\t0\trace\n\
             not a journal line\n\
             v0\tdrv\t1\tnorace\n\
             v1\tdrv\tnot-a-number\trace\n\
             v1\tdrv\t2\tinconclusive:bogus-reason\n\
             v1\tdrv\t3\tnora",
        )
        .unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 1);
        assert_eq!(j.lookup("drv", 0), Some(FieldOutcome::Race));
        assert_eq!(j.lookup("drv", 3), None, "torn final line must not count");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn causes_with_control_characters_stay_single_line() {
        let path = tmp_path("sanitize");
        let nasty = FieldOutcome::Crashed { cause: "line1\nline2\ttabbed".to_string() };
        {
            let mut j = Journal::open(&path).unwrap();
            j.record("drv", 0, &nasty).unwrap();
            j.record("drv", 1, &FieldOutcome::Race).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "{text:?}");
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.lookup("drv", 0), Some(FieldOutcome::Crashed { cause: "line1 line2 tabbed".to_string() }));
        assert_eq!(j.lookup("drv", 1), Some(FieldOutcome::Race));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reports_round_trip_and_merge_across_reopen() {
        let path = tmp_path("reports");
        let mut session1 = RunReport::default();
        session1.observe(&kiss_obs::CheckMetrics {
            check: "drv/0".into(),
            engine: "explicit".into(),
            verdict: "pass".into(),
            steps: 100,
            states: 40,
            wall_ms: 3,
            ..kiss_obs::CheckMetrics::default()
        });
        {
            let mut j = Journal::open(&path).unwrap();
            j.record("drv", 0, &FieldOutcome::NoRace).unwrap();
            j.record_report(&session1).unwrap();
        }
        let j = Journal::open(&path).unwrap();
        // Report lines do not leak into field records, and vice versa.
        assert_eq!(j.len(), 1);
        assert_eq!(j.merged_report(&RunReport::default()), session1);
        let mut session2 = RunReport::default();
        session2.observe(&kiss_obs::CheckMetrics {
            check: "drv/1".into(),
            engine: "explicit".into(),
            verdict: "race".into(),
            steps: 50,
            states: 20,
            wall_ms: 2,
            ..kiss_obs::CheckMetrics::default()
        });
        let merged = j.merged_report(&session2);
        assert_eq!(merged.checks, 2);
        assert_eq!(merged.outcomes["pass"], 1);
        assert_eq!(merged.outcomes["race"], 1);
        assert_eq!(merged.engines["explicit"].steps, 150);
        std::fs::remove_file(&path).unwrap();
    }

    /// Flips `mask` bits of the byte at `at` in the journal at `path`.
    fn flip(path: &Path, at: usize, mask: u8) {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[at] ^= mask;
        std::fs::write(path, bytes).unwrap();
    }

    #[test]
    fn a_non_utf8_byte_skips_only_its_record() {
        let path = tmp_path("nonutf8");
        {
            let mut j = Journal::open(&path).unwrap();
            for field in 0..3 {
                j.record("drv", field, &FieldOutcome::NoRace).unwrap();
            }
        }
        // The high bit of the first record's `d` in `drv`.
        flip(&path, 3, 0x80);
        let j = Journal::open(&path).unwrap();
        assert_eq!((j.len(), j.skipped()), (2, 1));
        assert_eq!(j.lookup("drv", 0), None);
        assert_eq!(j.lookup("drv", 1), Some(FieldOutcome::NoRace));
        assert_eq!(j.lookup("drv", 2), Some(FieldOutcome::NoRace));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_record_after_a_torn_tail_survives_the_next_reopen() {
        let path = tmp_path("torntail");
        {
            let mut j = Journal::open(&path).unwrap();
            j.record("drv", 0, &FieldOutcome::Race).unwrap();
            j.record("drv", 1, &FieldOutcome::NoRace).unwrap();
        }
        // Keep the first record and half of the second.
        let text = std::fs::read_to_string(&path).unwrap();
        let first = text.find('\n').unwrap() + 1;
        std::fs::write(&path, &text[..first + (text.len() - first) / 2]).unwrap();
        {
            let mut j = Journal::open(&path).unwrap();
            assert_eq!((j.len(), j.skipped()), (1, 1));
            j.record("drv", 2, &FieldOutcome::Race).unwrap();
        }
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.lookup("drv", 0), Some(FieldOutcome::Race));
        assert_eq!(j.lookup("drv", 1), None, "the torn record must not count");
        assert_eq!(j.lookup("drv", 2), Some(FieldOutcome::Race), "appended after the tear");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_flipped_field_index_is_skipped_not_given_to_another_field() {
        let path = tmp_path("indexflip");
        {
            let mut j = Journal::open(&path).unwrap();
            j.record("drv", 3, &FieldOutcome::Race).unwrap();
        }
        // `3` -> `7` is one bit, and the result still parses as an index.
        let at = std::fs::read_to_string(&path).unwrap().find("\t3\t").unwrap() + 1;
        flip(&path, at, 0x04);
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.lookup("drv", 7), None);
        assert_eq!(j.lookup("drv", 3), None);
        assert_eq!((j.len(), j.skipped()), (0, 1));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_flipped_byte_in_a_report_drops_only_that_report() {
        let path = tmp_path("reportflip");
        let session = |check: &str, steps| {
            let mut r = RunReport::default();
            r.observe(&kiss_obs::CheckMetrics {
                check: check.into(),
                engine: "explicit".into(),
                verdict: "pass".into(),
                steps,
                ..kiss_obs::CheckMetrics::default()
            });
            r
        };
        {
            let mut j = Journal::open(&path).unwrap();
            j.record("drv", 0, &FieldOutcome::NoRace).unwrap();
            j.record_report(&session("drv/0", 100)).unwrap();
            j.record_report(&session("drv/1", 7)).unwrap();
        }
        // A digit in the first report line: `1` -> `3` keeps valid JSON.
        let text = std::fs::read_to_string(&path).unwrap();
        let report = text.find("v2report").unwrap();
        let at = report + text[report..].find("100").unwrap();
        assert!(at < report + text[report..].find('\n').unwrap());
        flip(&path, at, 0x02);
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.lookup("drv", 0), Some(FieldOutcome::NoRace));
        assert_eq!(j.skipped(), 1);
        assert_eq!(j.merged_report(&RunReport::default()), session("drv/1", 7));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn later_records_override_earlier_ones() {
        let path = tmp_path("override");
        {
            let mut j = Journal::open(&path).unwrap();
            j.record("drv", 0, &FieldOutcome::Inconclusive(BoundReason::Steps)).unwrap();
            j.record("drv", 0, &FieldOutcome::Race).unwrap();
        }
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.lookup("drv", 0), Some(FieldOutcome::Race));
        std::fs::remove_file(&path).unwrap();
    }
}
