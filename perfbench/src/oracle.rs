//! Ground truth that never asks the checker under test.
//!
//! Every expected verdict comes from how an input was built: the
//! generator's seeded field class, the samples suite's recorded
//! `buggy`/`balanced_bug` flags, the handshake family's depth rule,
//! the paper's Bluetooth findings, and the spinlock family's variant.

use kiss_drivers::FieldClass;

/// What a check is allowed and required to report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    /// Reporting an error (race, assertion, liveness) is consistent
    /// with ground truth.
    pub may_err: bool,
    /// A definite "no error" verdict contradicts ground truth.
    pub must_err: bool,
}

impl Expect {
    /// The check must report an error whenever it decides.
    pub const ERROR: Expect = Expect {
        may_err: true,
        must_err: true,
    };
    /// The check must never report an error.
    pub const CLEAN: Expect = Expect {
        may_err: false,
        must_err: false,
    };

    /// `must` decides between [`Expect::ERROR`] and [`Expect::CLEAN`].
    pub fn exactly(must: bool) -> Expect {
        if must {
            Expect::ERROR
        } else {
            Expect::CLEAN
        }
    }
}

/// A verdict class, as any layer of the system reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A race, assertion violation or liveness violation.
    Error,
    /// The search completed without an error.
    NoError,
    /// The search hit its budget.
    Inconclusive,
    /// The check crashed, failed, or was refused.
    Failed,
}

/// A per-field race check (paper Tables 1 and 2): Real and Benign
/// fields race under both harnesses, Spurious fields under the naive
/// harness only, Clean fields never, and Heavy fields never report a
/// race (they may also run out of budget).
pub fn field(class: FieldClass, refined: bool) -> Expect {
    match class {
        FieldClass::Real | FieldClass::Benign => Expect::ERROR,
        FieldClass::Spurious => Expect::exactly(!refined),
        FieldClass::Clean | FieldClass::Heavy => Expect::CLEAN,
    }
}

/// A samples-suite assertion check: only a buggy sample may fail, and
/// a balanced bug must be found once `MAX >= 2`.
pub fn sample(buggy: bool, balanced_bug: bool, max_ts: usize) -> Expect {
    Expect {
        may_err: buggy,
        must_err: buggy && balanced_bug && max_ts >= 2,
    }
}

/// The handshake family: a depth-`d` bug is found iff `MAX >= d - 1`.
pub fn handshake(depth: usize, max_ts: usize) -> Expect {
    Expect::exactly(max_ts + 1 >= depth)
}

/// The Figure 2 Bluetooth model: the buggy driver's assertion fails
/// iff `MAX >= 1`; the fixed driver and the fakemodem refcount never
/// fail.
pub fn bluetooth(buggy: bool, max_ts: usize) -> Expect {
    Expect::exactly(buggy && max_ts >= 1)
}

/// The spinlock family under `G (locked -> F !locked)`: the stuck
/// variant violates it, the correct one holds.
pub fn spinlock(stuck: bool) -> Expect {
    Expect::exactly(stuck)
}

/// The outcome of judging one verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Judged {
    /// The verdict was definite (error or no error).
    pub decided: bool,
    /// The verdict contradicts ground truth.
    pub wrong: bool,
    /// The check did not produce a verdict at all.
    pub failed: bool,
}

/// Judges `verdict` against `expect`. `replay_ok` is `Some(false)` when
/// a reported assertion error did not replay on the concurrent program
/// — a false error, hence wrong whatever the expectation.
pub fn judge(expect: Expect, verdict: Verdict, replay_ok: Option<bool>) -> Judged {
    let wrong = match verdict {
        Verdict::Error => !expect.may_err || replay_ok == Some(false),
        Verdict::NoError => expect.must_err,
        Verdict::Inconclusive | Verdict::Failed => false,
    };
    Judged {
        decided: matches!(verdict, Verdict::Error | Verdict::NoError),
        wrong,
        failed: verdict == Verdict::Failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_classes_follow_tables_1_and_2() {
        for refined in [false, true] {
            assert_eq!(field(FieldClass::Real, refined), Expect::ERROR);
            assert_eq!(field(FieldClass::Benign, refined), Expect::ERROR);
            assert_eq!(field(FieldClass::Clean, refined), Expect::CLEAN);
        }
        assert_eq!(field(FieldClass::Spurious, false), Expect::ERROR);
        assert_eq!(field(FieldClass::Spurious, true), Expect::CLEAN);
        // Heavy: no race is fine, out of budget is fine, a race is not.
        let heavy = field(FieldClass::Heavy, false);
        assert!(!judge(heavy, Verdict::NoError, None).wrong);
        assert!(!judge(heavy, Verdict::Inconclusive, None).wrong);
        assert!(judge(heavy, Verdict::Error, None).wrong);
    }

    #[test]
    fn handshake_depth_rule() {
        assert_eq!(handshake(1, 0), Expect::ERROR);
        assert_eq!(handshake(2, 0), Expect::CLEAN);
        assert_eq!(handshake(2, 1), Expect::ERROR);
        assert_eq!(handshake(5, 3), Expect::CLEAN);
        assert_eq!(handshake(4, 3), Expect::ERROR);
    }

    #[test]
    fn bluetooth_rule() {
        assert_eq!(bluetooth(true, 0), Expect::CLEAN);
        assert_eq!(bluetooth(true, 1), Expect::ERROR);
        assert_eq!(bluetooth(false, 3), Expect::CLEAN);
    }

    #[test]
    fn samples_rule() {
        // A correct sample must never fail.
        assert!(judge(sample(false, false, 3), Verdict::Error, Some(true)).wrong);
        // An unbalanced bug may be missed at any MAX.
        assert!(!judge(sample(true, false, 3), Verdict::NoError, None).wrong);
        // A balanced bug may be missed below MAX 2, not from MAX 2 on.
        assert!(!judge(sample(true, true, 1), Verdict::NoError, None).wrong);
        assert!(judge(sample(true, true, 2), Verdict::NoError, None).wrong);
    }

    #[test]
    fn spinlock_rule() {
        assert!(judge(spinlock(true), Verdict::NoError, None).wrong);
        assert!(judge(spinlock(false), Verdict::Error, None).wrong);
        assert!(!judge(spinlock(true), Verdict::Error, None).wrong);
    }

    #[test]
    fn unreplayable_errors_are_wrong() {
        assert!(judge(Expect::ERROR, Verdict::Error, Some(false)).wrong);
        assert!(!judge(Expect::ERROR, Verdict::Error, Some(true)).wrong);
        assert!(!judge(Expect::ERROR, Verdict::Error, None).wrong);
    }

    #[test]
    fn failures_are_counted_not_judged() {
        let j = judge(Expect::ERROR, Verdict::Failed, None);
        assert!(j.failed && !j.wrong && !j.decided);
        let j = judge(Expect::ERROR, Verdict::Inconclusive, None);
        assert!(!j.failed && !j.wrong && !j.decided);
    }
}
