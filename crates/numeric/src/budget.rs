//! Cooperative iteration/deadline budgets.
//!
//! A [`Budget`] is threaded by value-reference through nested solver
//! loops (the VB2 truncation growth, its per-`N` fixed points, the VB1
//! coordinate ascent) so one limit governs the *whole* fit rather than
//! each inner loop independently. Loops call [`Budget::charge`] once
//! per iteration; exhaustion surfaces as
//! [`NumericError::BudgetExhausted`], a clean error the supervised
//! fitting pipeline can classify and retry — never a panic and never
//! an unbounded spin.
//!
//! Deadlines are wall-clock and *cooperative*: they are checked at
//! charge time, so a budget cannot interrupt a long single iteration,
//! but every iteration boundary observes it. Checking `Instant::now()`
//! on every charge would dominate the (sub-microsecond) fixed-point
//! iterations, so the clock is consulted every
//! [`Budget::DEADLINE_CHECK_STRIDE`] charges.

use crate::NumericError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A shared, cooperative bound on solver work: a maximum number of
/// iterations, an optional wall-clock deadline, or both.
#[derive(Debug, Clone)]
pub struct Budget {
    limit: u64,
    used: u64,
    deadline: Option<Instant>,
    charges_since_clock: u32,
}

impl Budget {
    /// How many charges may elapse between deadline checks.
    pub const DEADLINE_CHECK_STRIDE: u32 = 64;

    /// A budget of `limit` iterations with no deadline.
    pub fn iterations(limit: u64) -> Self {
        Budget {
            limit,
            used: 0,
            deadline: None,
            charges_since_clock: 0,
        }
    }

    /// An effectively unlimited budget (iteration-count bookkeeping
    /// still happens, so diagnostics remain meaningful).
    pub fn unlimited() -> Self {
        Budget::iterations(u64::MAX)
    }

    /// Adds a wall-clock deadline `timeout` from now.
    #[must_use]
    pub fn with_deadline(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Iterations charged so far.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Iterations remaining before exhaustion.
    pub fn remaining(&self) -> u64 {
        self.limit.saturating_sub(self.used)
    }

    /// Charges `n` iterations against the budget.
    ///
    /// # Errors
    ///
    /// [`NumericError::BudgetExhausted`] once the iteration limit is
    /// exceeded or the deadline has passed. The budget stays usable
    /// for reporting (`used()`), but every further `charge` fails.
    pub fn charge(&mut self, n: u64) -> Result<(), NumericError> {
        self.used = self.used.saturating_add(n);
        if self.used > self.limit {
            return Err(NumericError::BudgetExhausted {
                used: self.used,
                reason: "iteration limit reached",
            });
        }
        if let Some(deadline) = self.deadline {
            self.charges_since_clock += 1;
            if self.charges_since_clock >= Self::DEADLINE_CHECK_STRIDE {
                self.charges_since_clock = 0;
                if Instant::now() >= deadline {
                    // Make every subsequent charge fail fast too.
                    self.limit = self.used.saturating_sub(1).max(1);
                    return Err(NumericError::BudgetExhausted {
                        used: self.used,
                        reason: "deadline passed",
                    });
                }
            }
        }
        Ok(())
    }

    /// A sub-budget capped at `limit` iterations that, when merged
    /// back via [`Budget::absorb`], charges its parent. Lets an inner
    /// loop run under `min(inner cap, whatever remains globally)`.
    pub fn sub_budget(&self, limit: u64) -> Budget {
        Budget {
            limit: limit.min(self.remaining()),
            used: 0,
            deadline: self.deadline,
            charges_since_clock: self.charges_since_clock,
        }
    }

    /// Folds a finished sub-budget's consumption into this budget.
    ///
    /// # Errors
    ///
    /// [`NumericError::BudgetExhausted`] if the child's consumption
    /// pushes this budget over its own limit.
    pub fn absorb(&mut self, child: &Budget) -> Result<(), NumericError> {
        // The child already paced the shared deadline; only the
        // iteration count needs to be folded in.
        let deadline = self.deadline.take();
        let result = self.charge(child.used());
        self.deadline = deadline;
        result
    }
}

/// A thread-safe view of a [`Budget`], shared by every worker of a
/// work pool so that one global limit governs a whole parallel fit.
///
/// Unlike [`Budget`] — which is charged once per *inner iteration* and
/// therefore strides its deadline checks — a `SharedBudget` is charged
/// once per *settled unit of work* (a finished component solve, a
/// merged sub-budget), which is coarse enough that every charge can
/// afford an unconditional `Instant::now()`. That also closes a
/// staleness hole: a detached local budget resets its stride counter,
/// so cheap closed-form work might never observe an expired deadline;
/// settling through the shared budget always does.
#[derive(Debug)]
pub struct SharedBudget {
    limit: u64,
    used: AtomicU64,
    deadline: Option<Instant>,
}

impl SharedBudget {
    /// Shares the limit, consumption so far, and deadline of `budget`.
    pub fn from_budget(budget: &Budget) -> Self {
        SharedBudget {
            limit: budget.limit,
            used: AtomicU64::new(budget.used),
            deadline: budget.deadline,
        }
    }

    /// Iterations charged so far, by all workers together.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// Iterations remaining before exhaustion.
    pub fn remaining(&self) -> u64 {
        self.limit.saturating_sub(self.used())
    }

    /// Charges `n` iterations against the shared budget and checks the
    /// deadline.
    ///
    /// # Errors
    ///
    /// [`NumericError::BudgetExhausted`] once the global limit is
    /// exceeded or the deadline has passed.
    pub fn charge(&self, n: u64) -> Result<(), NumericError> {
        let used = self.used.fetch_add(n, Ordering::Relaxed).saturating_add(n);
        if used > self.limit {
            return Err(NumericError::BudgetExhausted {
                used,
                reason: "iteration limit reached",
            });
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(NumericError::BudgetExhausted {
                    used,
                    reason: "deadline passed",
                });
            }
        }
        Ok(())
    }

    /// A detached single-thread [`Budget`] capped at
    /// `min(cap, remaining)` iterations, sharing the deadline. Nothing
    /// is reserved: settle its consumption back with
    /// [`SharedBudget::absorb`] once the unit of work finishes.
    pub fn local(&self, cap: u64) -> Budget {
        Budget {
            limit: cap.min(self.remaining()),
            used: 0,
            deadline: self.deadline,
            charges_since_clock: 0,
        }
    }

    /// Folds a finished local budget's consumption into the shared
    /// total.
    ///
    /// # Errors
    ///
    /// [`NumericError::BudgetExhausted`] if the settled work exceeds
    /// the global limit or the deadline has passed meanwhile.
    pub fn absorb(&self, child: &Budget) -> Result<(), NumericError> {
        self.charge(child.used())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_until_the_limit() {
        let mut b = Budget::iterations(3);
        assert!(b.charge(1).is_ok());
        assert!(b.charge(2).is_ok());
        assert_eq!(b.remaining(), 0);
        let err = b.charge(1).unwrap_err();
        assert!(matches!(err, NumericError::BudgetExhausted { used: 4, .. }));
    }

    #[test]
    fn unlimited_budget_never_exhausts() {
        let mut b = Budget::unlimited();
        for _ in 0..10_000 {
            b.charge(1_000).unwrap();
        }
        assert_eq!(b.used(), 10_000_000);
        assert!(b.remaining() > 0);
    }

    #[test]
    fn deadline_in_the_past_fails_within_one_stride() {
        let mut b = Budget::unlimited().with_deadline(Duration::ZERO);
        let mut failed = false;
        for _ in 0..=Budget::DEADLINE_CHECK_STRIDE {
            if b.charge(1).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "expired deadline was never observed");
        // And it keeps failing afterwards.
        assert!(b.charge(1).is_err());
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let mut b = Budget::iterations(1_000).with_deadline(Duration::from_secs(3600));
        for _ in 0..1_000 {
            b.charge(1).unwrap();
        }
        assert!(b.charge(1).is_err());
    }

    #[test]
    fn sub_budget_is_capped_by_parent_remainder() {
        let mut parent = Budget::iterations(10);
        parent.charge(7).unwrap();
        let child = parent.sub_budget(100);
        assert_eq!(child.remaining(), 3);
    }

    #[test]
    fn absorb_folds_child_consumption_into_parent() {
        let mut parent = Budget::iterations(10);
        let mut child = parent.sub_budget(6);
        child.charge(5).unwrap();
        parent.absorb(&child).unwrap();
        assert_eq!(parent.used(), 5);
        let mut child2 = parent.sub_budget(100);
        assert_eq!(child2.remaining(), 5);
        child2.charge(5).unwrap();
        parent.absorb(&child2).unwrap();
        assert_eq!(parent.remaining(), 0);
    }

    #[test]
    fn shared_budget_enforces_the_global_limit_across_locals() {
        let shared = SharedBudget::from_budget(&Budget::iterations(10));
        let mut a = shared.local(100);
        assert_eq!(a.remaining(), 10);
        a.charge(6).unwrap();
        shared.absorb(&a).unwrap();
        let mut b = shared.local(100);
        assert_eq!(b.remaining(), 4);
        b.charge(4).unwrap();
        shared.absorb(&b).unwrap();
        assert_eq!(shared.remaining(), 0);
        assert!(shared.charge(1).is_err());
    }

    #[test]
    fn shared_budget_checks_the_deadline_on_every_charge() {
        let base = Budget::unlimited().with_deadline(Duration::ZERO);
        let shared = SharedBudget::from_budget(&base);
        // No stride: the very first settled charge observes expiry.
        assert!(shared.charge(1).is_err());
    }

    #[test]
    fn shared_budget_inherits_prior_consumption() {
        let mut base = Budget::iterations(10);
        base.charge(3).unwrap();
        let shared = SharedBudget::from_budget(&base);
        shared.charge(2).unwrap();
        assert_eq!(shared.used(), 5);
        assert_eq!(shared.remaining(), 5);
    }

    #[test]
    fn shared_budget_is_usable_across_scoped_threads() {
        let shared = SharedBudget::from_budget(&Budget::iterations(1_000));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..250 {
                        shared.charge(1).unwrap();
                    }
                });
            }
        });
        assert_eq!(shared.used(), 1_000);
        assert!(shared.charge(1).is_err());
    }
}
