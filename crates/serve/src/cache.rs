//! The content-addressed result cache.
//!
//! Verdicts are keyed by the request's 128-bit content fingerprint
//! ([`crate::protocol::Request::cache_key`]). The in-memory index is
//! sharded: [`SHARD_COUNT`] independently locked open-addressed tables
//! (the same probing shape as `kiss-seq`'s visited table), with the
//! shard picked by the key's top bits — so concurrent lookups and
//! inserts on different shards never contend. Every insert is appended
//! to a single on-disk journal stream so a restarted server comes back
//! warm.
//!
//! Lock pressure is observable: the cache counts every shard-lock
//! acquisition and every acquisition that found the lock held
//! ([`ResultCache::lock_stats`]), and the server surfaces both in the
//! `metrics` snapshot — the proof that sharding removed the old
//! single-mutex contention is a contended/acquired ratio near zero
//! under concurrent load.
//!
//! The journal is a [`kiss_obs::record_log`]: one checksummed record
//! per line, so a torn or bit-flipped record is skipped on replay
//! instead of restoring a wrong verdict. This module owns only the
//! payload:
//!
//! ```text
//! v2<TAB>0123...cdef<TAB>verdict<TAB>steps<TAB>states<TAB>detail<TAB>checksum
//! ```
//!
//! Legacy `v1` records (no checksum) still replay, and a later record
//! for the same key overrides an earlier one.
//!
//! Because the journal is append-only, overridden and re-journaled
//! records accumulate; [`ResultCache::compact`] rewrites the file to
//! one canonical record per live entry (sorted by key, so compaction
//! is byte-reproducible), and inserts trigger it automatically once
//! the journal holds ~4x more records than live entries.
//!
//! Failpoints (`serve.journal.append`, `serve.journal.compact`) let
//! the chaos suite inject torn writes, append errors, and compaction
//! failures; every fired injection is reported through the cache's
//! [`Obs`] handle as a `fault_injected` event.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};

use kiss_fault::Action;
use kiss_obs::record_log::{self, RecordLog, ReplayStats};
use kiss_obs::{Event, Obs};

/// The journal file's name inside the cache directory.
pub const JOURNAL_FILE: &str = "cache.journal";

/// Independently locked index partitions. A power of two; the shard is
/// the key's top four bits, so uniformly mixed fingerprints spread
/// evenly.
pub const SHARD_COUNT: usize = 16;

/// Failpoint: one journal append (error = drop the record, truncate =
/// torn write of the record's first K bytes).
const APPEND_POINT: &str = "serve.journal.append";

/// Failpoint: one compaction pass (error = abort, journal untouched).
const COMPACT_POINT: &str = "serve.journal.compact";

/// A cached check verdict — exactly the deterministic half of a
/// response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedVerdict {
    /// The verdict string (`pass`, `race`, ...).
    pub verdict: String,
    /// The deterministic detail line.
    pub detail: String,
    /// Steps the check executed.
    pub steps: u64,
    /// Distinct states the check recorded.
    pub states: u64,
}

/// One index partition: a power-of-two slot array, linear probing.
struct Shard {
    slots: Vec<Option<(u128, CachedVerdict)>>,
    len: usize,
}

impl Shard {
    fn new() -> Shard {
        Shard { slots: vec![None; ResultCache::INITIAL_SHARD_CAPACITY], len: 0 }
    }

    fn lookup(&self, key: u128) -> Option<&CachedVerdict> {
        let mask = self.slots.len() - 1;
        let mut idx = slot_of(key) & mask;
        loop {
            match &self.slots[idx] {
                None => return None,
                Some((k, v)) if *k == key => return Some(v),
                Some(_) => idx = (idx + 1) & mask,
            }
        }
    }

    /// Inserts or overrides; `true` when the key is new to this shard.
    fn insert(&mut self, key: u128, verdict: CachedVerdict) -> bool {
        // Grow at 3/4 load so probe chains stay short.
        if (self.len + 1) * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut idx = slot_of(key) & mask;
        loop {
            match &mut self.slots[idx] {
                slot @ None => {
                    *slot = Some((key, verdict));
                    self.len += 1;
                    return true;
                }
                Some((k, v)) if *k == key => {
                    *v = verdict;
                    return false;
                }
                Some(_) => idx = (idx + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        let doubled = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![None; doubled]);
        self.len = 0;
        for (key, verdict) in old.into_iter().flatten() {
            self.insert(key, verdict);
        }
    }
}

/// The single append stream behind every shard, plus its accounting.
/// One mutex guards it: appends are short writes, and keeping the
/// stream singular preserves the on-disk format exactly.
struct Journal {
    /// `None` for an in-memory cache.
    log: Option<RecordLog>,
    /// Lines currently in the journal file (valid or not), replay
    /// included — the auto-compaction trigger.
    records: usize,
    /// Compaction passes completed since open.
    compactions: u64,
    auto_compact_min: usize,
    obs: Obs,
}

impl Journal {
    fn append(&mut self, key: u128, verdict: &CachedVerdict) {
        let Some(log) = self.log.as_mut() else { return };
        let line = encode_record(key, verdict);
        let _ = match fault(&self.obs, APPEND_POINT) {
            // The record is dropped on the floor: the entry degrades to
            // memory-only, exactly like a real failed write.
            Some(Action::Error) => return,
            // A torn write: the record's head lands in the file with no
            // newline, as if the process died mid-append.
            Some(Action::Truncate(cut)) => log.append_torn(&line, cut),
            _ => log.append(&line),
        };
        self.records += 1;
    }
}

/// Fires the failpoint `point`: reports any injection through `obs`,
/// panics or sleeps in place, and hands an error or truncation back.
fn fault(obs: &Obs, point: &str) -> Option<Action> {
    let action = kiss_fault::hit(point)?;
    obs.emit(|_| Event::FaultInjected { point: point.to_string(), action: action.name().to_string() });
    match action {
        Action::Panic => panic!("kiss-fault: injected panic at {point}"),
        Action::Delay(d) => {
            std::thread::sleep(d);
            None
        }
        fault => Some(fault),
    }
}

/// The cache: sharded open-addressed index plus one optional
/// append-only journal. All methods take `&self`; locking is interior
/// and per-shard, so concurrent readers and writers on different keys
/// proceed in parallel.
pub struct ResultCache {
    shards: Box<[Mutex<Shard>]>,
    /// Live entries across all shards (kept outside the shard locks so
    /// `len` and the auto-compaction trigger need no sweep).
    live: AtomicUsize,
    journal: Mutex<Journal>,
    /// Shard-lock acquisitions since open.
    lock_acquires: AtomicU64,
    /// Acquisitions that found the shard lock already held and had to
    /// block — the contention signal the `metrics` op surfaces.
    lock_contended: AtomicU64,
}

impl ResultCache {
    const INITIAL_SHARD_CAPACITY: usize = 16;

    /// Journals shorter than this never auto-compact: rewriting a tiny
    /// file buys nothing.
    const AUTO_COMPACT_MIN: usize = 1024;

    /// A cache with no journal: verdicts live for this process only.
    pub fn in_memory() -> ResultCache {
        ResultCache {
            shards: (0..SHARD_COUNT).map(|_| Mutex::new(Shard::new())).collect(),
            live: AtomicUsize::new(0),
            journal: Mutex::new(Journal {
                log: None,
                records: 0,
                compactions: 0,
                auto_compact_min: Self::AUTO_COMPACT_MIN,
                obs: Obs::off(),
            }),
            lock_acquires: AtomicU64::new(0),
            lock_contended: AtomicU64::new(0),
        }
    }

    /// Opens (creating if needed) the journal-backed cache in `dir`,
    /// replaying any existing journal into the index.
    pub fn open(dir: &Path) -> io::Result<ResultCache> {
        std::fs::create_dir_all(dir)?;
        let mut cache = ResultCache::in_memory();
        let (shards, live) = (&mut cache.shards, cache.live.get_mut());
        // Garbage and torn lines are skipped, not fatal: the cache is an
        // accelerator, never a source of truth.
        let log = RecordLog::open(&dir.join(JOURNAL_FILE), |kind, fields| {
            let Some((key, verdict)) = parse_record(kind, fields) else { return false };
            if shards[shard_index(key)].get_mut().expect("shard lock").insert(key, verdict) {
                *live += 1;
            }
            true
        })?;
        let journal = cache.journal.get_mut().expect("journal lock");
        journal.records = log.replay_stats().replayed + log.replay_stats().skipped;
        journal.log = Some(log);
        Ok(cache)
    }

    /// Routes this cache's `fault_injected` events into `obs`.
    pub fn with_observer(self, obs: Obs) -> ResultCache {
        self.journal.lock().expect("journal lock").obs = obs;
        self
    }

    /// Overrides the auto-compaction floor (tests shrink it; the
    /// default is [`Self::AUTO_COMPACT_MIN`] records).
    pub fn with_auto_compact_min(self, min: usize) -> ResultCache {
        self.journal.lock().expect("journal lock").auto_compact_min = min;
        self
    }

    /// Cached verdicts held.
    pub fn len(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Index partitions ([`SHARD_COUNT`]).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// `(acquisitions, contended)` shard-lock counts since open. The
    /// contended count is how many acquisitions found the lock held;
    /// under a well-sharded load it stays near zero.
    pub fn lock_stats(&self) -> (u64, u64) {
        (
            self.lock_acquires.load(Ordering::Relaxed),
            self.lock_contended.load(Ordering::Relaxed),
        )
    }

    /// What replaying the journal found when this cache was opened.
    pub fn replay_stats(&self) -> ReplayStats {
        let journal = self.journal.lock().expect("journal lock");
        journal.log.as_ref().map(RecordLog::replay_stats).unwrap_or_default()
    }

    /// Lines currently in the journal file (live records, overridden
    /// duplicates, and skipped garbage).
    pub fn journal_records(&self) -> usize {
        self.journal.lock().expect("journal lock").records
    }

    /// Approximate journal size in bytes (exact after a compaction).
    pub fn journal_bytes(&self) -> u64 {
        self.journal.lock().expect("journal lock").log.as_ref().map_or(0, RecordLog::bytes)
    }

    /// Compaction passes completed since this cache was opened.
    pub fn compactions(&self) -> u64 {
        self.journal.lock().expect("journal lock").compactions
    }

    /// Locks a key's shard, counting the acquisition and whether it had
    /// to block.
    fn shard(&self, key: u128) -> MutexGuard<'_, Shard> {
        self.lock_acquires.fetch_add(1, Ordering::Relaxed);
        let shard = &self.shards[shard_index(key)];
        match shard.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                self.lock_contended.fetch_add(1, Ordering::Relaxed);
                shard.lock().expect("shard lock")
            }
            Err(TryLockError::Poisoned(e)) => panic!("shard lock: {e}"),
        }
    }

    /// Looks a fingerprint up (the verdict is cloned out of the shard
    /// so the lock is held only for the probe).
    pub fn lookup(&self, key: u128) -> Option<CachedVerdict> {
        self.shard(key).lookup(key).cloned()
    }

    /// Inserts (or overrides) a verdict, appending it to the journal.
    /// The shard lock is released before the journal lock is taken, so
    /// index traffic on other shards never waits on disk I/O. Journal
    /// write failures are swallowed: a full disk degrades the cache to
    /// in-memory, it does not take the server down.
    pub fn insert(&self, key: u128, verdict: CachedVerdict) {
        let fresh = self.shard(key).insert(key, verdict.clone());
        if fresh {
            self.live.fetch_add(1, Ordering::SeqCst);
        }
        let mut journal = self.journal.lock().expect("journal lock");
        journal.append(key, &verdict);
        if journal.log.is_some()
            && journal.records >= journal.auto_compact_min
            && journal.records >= self.len().saturating_mul(4)
        {
            // A failed auto-compaction is not an error path: the journal
            // keeps appending and the next insert retries.
            let _ = self.compact_locked(&mut journal);
        }
    }

    /// Rewrites the journal to one record per live entry, sorted by
    /// key, through [`RecordLog::rewrite`]: an I/O error or a crash
    /// mid-compaction leaves the original intact. Sorting makes the
    /// result canonical: compacting a compacted journal reproduces it
    /// byte for byte.
    pub fn compact(&self) -> io::Result<()> {
        let mut journal = self.journal.lock().expect("journal lock");
        self.compact_locked(&mut journal)
    }

    fn compact_locked(&self, journal: &mut Journal) -> io::Result<()> {
        let Some(log) = journal.log.as_mut() else { return Ok(()) };
        if fault(&journal.obs, COMPACT_POINT).is_some() {
            return Err(io::Error::other("kiss-fault: injected compaction failure"));
        }
        // Sweep the shards (each locked briefly in turn) into one sorted
        // image. An insert racing this sweep either lands in the image
        // or appends to the new stream after the rename — both valid.
        let mut entries: Vec<(u128, CachedVerdict)> = Vec::with_capacity(self.len());
        for key_shard in 0..self.shards.len() {
            let shard = {
                self.lock_acquires.fetch_add(1, Ordering::Relaxed);
                self.shards[key_shard].lock().expect("shard lock")
            };
            entries.extend(shard.slots.iter().flatten().cloned());
        }
        entries.sort_unstable_by_key(|(k, _)| *k);
        log.rewrite(entries.iter().map(|(key, verdict)| encode_record(*key, verdict)))?;
        journal.records = entries.len();
        journal.compactions += 1;
        Ok(())
    }
}

/// The shard a key lives in: the fingerprint's top bits (its "prefix"),
/// so related keys spread by content, not by insertion order.
fn shard_index(key: u128) -> usize {
    (key >> (128 - SHARD_COUNT.trailing_zeros())) as usize
}

/// The fingerprint is already uniformly mixed, so the slot index just
/// folds the two lanes together.
fn slot_of(key: u128) -> usize {
    ((key as u64) ^ ((key >> 64) as u64)) as usize
}

/// One checksummed `v2` journal line (no trailing newline).
fn encode_record(key: u128, v: &CachedVerdict) -> String {
    let (steps, states) = (v.steps.to_string(), v.states.to_string());
    record_log::encode("", &[&format!("{key:032x}"), &v.verdict, &steps, &states, &v.detail])
}

/// A replayed record's payload: five fields, `v1` or `v2` alike.
fn parse_record(kind: &str, fields: &str) -> Option<(u128, CachedVerdict)> {
    if !kind.is_empty() {
        return None;
    }
    let mut parts = fields.splitn(5, '\t');
    let key = u128::from_str_radix(parts.next()?, 16).ok()?;
    let verdict = parts.next()?.to_string();
    let steps = parts.next()?.parse().ok()?;
    let states = parts.next()?.parse().ok()?;
    let detail = parts.next()?.to_string();
    Some((key, CachedVerdict { verdict, detail, steps, states }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn verdict(tag: u64) -> CachedVerdict {
        CachedVerdict {
            verdict: "pass".to_string(),
            detail: format!("no error found #{tag}"),
            steps: tag,
            states: tag / 2,
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("kiss_serve_cache_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn insert_lookup_override_and_growth() {
        let cache = ResultCache::in_memory();
        assert!(cache.is_empty());
        // Enough entries to force several growth rounds; the shifts
        // spread keys across slots AND shards (high bits vary).
        for i in 0..500u64 {
            cache.insert((u128::from(i) << 7) | (u128::from(i) << 120), verdict(i));
        }
        assert_eq!(cache.len(), 500);
        for i in 0..500u64 {
            assert_eq!(
                cache.lookup((u128::from(i) << 7) | (u128::from(i) << 120)),
                Some(verdict(i))
            );
        }
        assert_eq!(cache.lookup(0xdead_beef), None);
        // A later insert for the same key overrides.
        cache.insert(u128::from(0u64), verdict(999));
        assert_eq!(cache.len(), 500);
        assert_eq!(cache.lookup(0).unwrap().steps, 999);
        let (acquires, _) = cache.lock_stats();
        assert!(acquires >= 1000, "every lookup and insert counts, got {acquires}");
    }

    #[test]
    fn keys_spread_across_shards_by_prefix() {
        let cache = ResultCache::in_memory();
        // Keys differing only in their top bits land in distinct shards.
        for i in 0..SHARD_COUNT as u128 {
            cache.insert(i << 124, verdict(i as u64));
        }
        assert_eq!(cache.len(), SHARD_COUNT);
        let occupied = cache
            .shards
            .iter()
            .filter(|s| s.lock().unwrap().len > 0)
            .count();
        assert_eq!(occupied, SHARD_COUNT, "one key per shard");
    }

    #[test]
    fn concurrent_inserts_and_lookups_stay_consistent() {
        let cache = std::sync::Arc::new(ResultCache::in_memory());
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let cache = cache.clone();
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let key = (u128::from(t * 1000 + i)) << 100;
                        cache.insert(key, verdict(t * 1000 + i));
                        assert_eq!(cache.lookup(key), Some(verdict(t * 1000 + i)));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(cache.len(), 800);
        let (acquires, contended) = cache.lock_stats();
        assert!(acquires >= 1600);
        // Contention is possible but must be the exception, not the rule.
        assert!(contended < acquires, "{contended}/{acquires}");
    }

    #[test]
    fn journal_survives_reopen() {
        let dir = temp_dir("reopen");
        {
            let cache = ResultCache::open(&dir).unwrap();
            cache.insert(7, verdict(7));
            cache.insert(8, verdict(8));
            cache.insert(7, verdict(70)); // override, journaled twice
        }
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup(7).unwrap().steps, 70, "later record wins");
        assert_eq!(cache.lookup(8), Some(verdict(8)));
        assert_eq!(cache.replay_stats(), ReplayStats { replayed: 3, skipped: 0 });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_and_garbage_journal_lines_are_skipped() {
        let dir = temp_dir("torn");
        {
            let cache = ResultCache::open(&dir).unwrap();
            cache.insert(1, verdict(1));
        }
        let path = dir.join(JOURNAL_FILE);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("complete garbage\n");
        text.push_str("v9\t0\tpass\t0\t0\tfuture version\n");
        // A good record, then the same record torn mid-write: the torn
        // copy fails its checksum and must not shadow anything.
        text.push_str(&encode_record(2, &verdict(2)));
        text.push('\n');
        let torn = encode_record(3, &verdict(3));
        text.push_str(&torn[..torn.len() / 2]);
        std::fs::write(&path, text).unwrap();
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup(1), Some(verdict(1)));
        assert_eq!(cache.lookup(2), Some(verdict(2)));
        assert_eq!(cache.lookup(3), None);
        assert_eq!(cache.replay_stats(), ReplayStats { replayed: 2, skipped: 3 });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_non_utf8_byte_skips_only_its_record() {
        let dir = temp_dir("nonutf8");
        {
            let cache = ResultCache::open(&dir).unwrap();
            for key in 1..=3 {
                cache.insert(key, verdict(key as u64));
            }
        }
        let path = dir.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip the high bit of a byte in the first record (key 1).
        let at = bytes.iter().position(|&b| b == b'p').unwrap();
        bytes[at] ^= 0x80;
        std::fs::write(&path, bytes).unwrap();
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.lookup(1), None);
        assert_eq!(cache.lookup(2), Some(verdict(2)));
        assert_eq!(cache.lookup(3), Some(verdict(3)));
        assert_eq!(cache.replay_stats(), ReplayStats { replayed: 2, skipped: 1 });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A compaction image of four inserts (one an override), exactly as
    /// daemons before the shared record log wrote it.
    const ESTABLISHED_IMAGE: &str = "\
        v2\t00000000000000000000000000000002\tpass\t2\t1\tno error found #2\tdb2d8a8af02194b6\n\
        v2\t00000000000000000000000000000003\tpass\t30\t15\tno error found #30\t9a954dc6315344c0\n\
        v2\t10000000000000000000000000000000\tpass\t1\t0\tno error found #1\t5c13e98645ed2db0\n";

    #[test]
    fn records_keep_the_established_line_format() {
        let v = CachedVerdict {
            verdict: "race".to_string(),
            detail: "race on `dev.count`:\tthread 1\nthread 2".to_string(),
            steps: 1234,
            states: 567,
        };
        assert_eq!(
            encode_record(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210, &v),
            "v2\t0123456789abcdeffedcba9876543210\trace\t1234\t567\t\
             race on `dev.count`: thread 1 thread 2\t8c24b03cef332786"
        );
    }

    #[test]
    fn compaction_keeps_the_established_image_and_replays_it() {
        let dir = temp_dir("golden");
        {
            let cache = ResultCache::open(&dir).unwrap();
            for (key, tag) in [(3u128, 3u64), (1 << 124, 1), (2, 2), (3, 30)] {
                cache.insert(key, verdict(tag));
            }
            cache.compact().unwrap();
        }
        let path = dir.join(JOURNAL_FILE);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), ESTABLISHED_IMAGE);
        // An image written before the shared record log replays whole.
        std::fs::write(&path, ESTABLISHED_IMAGE).unwrap();
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.replay_stats(), ReplayStats { replayed: 3, skipped: 0 });
        assert_eq!(cache.lookup(1 << 124), Some(verdict(1)));
        assert_eq!(cache.lookup(2), Some(verdict(2)));
        assert_eq!(cache.lookup(3), Some(verdict(30)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_v1_records_still_replay() {
        let dir = temp_dir("legacy");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(JOURNAL_FILE),
            "v1\t00000000000000000000000000000009\tpass\t9\t4\tno error found #9\n",
        )
        .unwrap();
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(9), Some(verdict(9)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn details_with_separators_stay_one_record() {
        let dir = temp_dir("sanitize");
        let nasty = CachedVerdict {
            verdict: "error".to_string(),
            detail: "line one\nline\ttwo".to_string(),
            steps: 0,
            states: 0,
        };
        {
            let cache = ResultCache::open(&dir).unwrap();
            cache.insert(3, nasty);
        }
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(3).unwrap().detail, "line one line two");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_drops_dead_records_and_is_byte_reproducible() {
        let dir = temp_dir("compact");
        {
            let cache = ResultCache::open(&dir).unwrap();
            for round in 0..10u64 {
                for key in 0..20u64 {
                    cache.insert(u128::from(key), verdict(key * 100 + round));
                }
            }
            assert_eq!(cache.journal_records(), 200);
            let bytes_before = cache.journal_bytes();
            assert_eq!(
                bytes_before,
                std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len()
            );
            assert_eq!(cache.compactions(), 0);
            cache.compact().unwrap();
            assert_eq!(cache.journal_records(), 20);
            assert_eq!(cache.compactions(), 1);
            assert!(cache.journal_bytes() < bytes_before);
            assert_eq!(
                cache.journal_bytes(),
                std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len()
            );
            // The journal stays appendable after the swap.
            cache.insert(999, verdict(999));
            assert_eq!(
                cache.journal_bytes(),
                std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len()
            );
        }
        let path = dir.join(JOURNAL_FILE);
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 21);
        assert_eq!(
            cache.journal_bytes(),
            std::fs::metadata(&path).unwrap().len(),
            "replay seeds journal_bytes from the file"
        );
        for key in 0..20u64 {
            assert_eq!(cache.lookup(u128::from(key)).unwrap().steps, key * 100 + 9);
        }
        // Compacting a compacted journal reproduces it byte for byte.
        cache.compact().unwrap();
        let first = std::fs::read(&path).unwrap();
        drop(cache);
        let cache = ResultCache::open(&dir).unwrap();
        cache.compact().unwrap();
        let second = std::fs::read(&path).unwrap();
        assert_eq!(first, second);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_folds_every_shard_into_one_image() {
        let dir = temp_dir("shardcompact");
        {
            let cache = ResultCache::open(&dir).unwrap();
            // One key per shard, then overrides to bloat the journal.
            for i in 0..SHARD_COUNT as u128 {
                cache.insert(i << 124, verdict(i as u64));
                cache.insert(i << 124, verdict(i as u64 + 100));
            }
            cache.compact().unwrap();
            assert_eq!(cache.journal_records(), SHARD_COUNT);
        }
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.len(), SHARD_COUNT);
        for i in 0..SHARD_COUNT as u128 {
            assert_eq!(cache.lookup(i << 124).unwrap().steps, i as u64 + 100);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inserts_auto_compact_once_the_journal_bloats() {
        let dir = temp_dir("autocompact");
        let cache =
            ResultCache::open(&dir).unwrap().with_auto_compact_min(32);
        // Hammer four keys: the journal grows with every override until
        // it crosses 4x the live count and collapses back to 4 records.
        for round in 0..40u64 {
            for key in 0..4u64 {
                cache.insert(u128::from(key), verdict(round));
            }
        }
        assert_eq!(cache.len(), 4);
        assert!(
            cache.journal_records() < 40,
            "journal should have auto-compacted, has {} records",
            cache.journal_records()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
