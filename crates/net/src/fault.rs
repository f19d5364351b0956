//! Seeded, deterministic network-fault injection.
//!
//! Chaos tests need the *same* faults on every run: a plan hashes
//! `(seed, worker, seq)` with FNV-1a and converts the hash into a
//! uniform fraction, so whether RPC number `seq` to worker `worker` is
//! dropped or delayed is a pure function of the seed — the same scheme
//! the single-process executor's `FaultPlan` uses for kernel faults.
//!
//! Drops are modeled at the coordinator's send site as an instant
//! timeout (the frame never leaves, the retry ladder engages) so tests
//! do not have to sit out real deadlines; delays are real sleeps.
//! Severed links and killed workers are driven from the worker side
//! (`WorkerOptions::die_after_tasks`), where all of a process's
//! connections can be cut at once.

use hqr_tile::io::{bytes_of_u64s, fnv1a64};
use std::time::Duration;

/// What the plan decrees for one RPC send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver normally.
    Deliver,
    /// The frame is lost; the caller sees a timeout.
    Drop,
    /// Deliver after the configured delay.
    Delay(Duration),
}

/// A deterministic schedule of drops and delays.
#[derive(Clone, Copy, Debug)]
pub struct NetFaultPlan {
    /// Seed for the fault hash.
    pub seed: u64,
    /// Fraction of RPCs dropped, in `[0, 1]`.
    pub drop_frac: f64,
    /// Fraction of RPCs delayed, in `[0, 1]` (evaluated after drops).
    pub delay_frac: f64,
    /// How long a delayed RPC waits.
    pub delay: Duration,
}

impl NetFaultPlan {
    /// A plan that never injects anything.
    pub fn none() -> Self {
        NetFaultPlan { seed: 0, drop_frac: 0.0, delay_frac: 0.0, delay: Duration::ZERO }
    }

    /// The action for RPC `seq` to `worker` — a pure function of
    /// `(seed, worker, seq)`.
    pub fn action(&self, worker: usize, seq: u64) -> FaultAction {
        if self.drop_frac <= 0.0 && self.delay_frac <= 0.0 {
            return FaultAction::Deliver;
        }
        let h = fnv1a64(&bytes_of_u64s(&[self.seed, worker as u64, seq]));
        // 53 high bits -> uniform in [0, 1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        if u < self.drop_frac {
            FaultAction::Drop
        } else if u < self.drop_frac + self.delay_frac {
            FaultAction::Delay(self.delay)
        } else {
            FaultAction::Deliver
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic() {
        let p = NetFaultPlan {
            seed: 42,
            drop_frac: 0.3,
            delay_frac: 0.2,
            delay: Duration::from_millis(5),
        };
        for w in 0..4 {
            for seq in 0..64 {
                assert_eq!(p.action(w, seq), p.action(w, seq));
            }
        }
    }

    #[test]
    fn fractions_roughly_respected() {
        let p = NetFaultPlan { seed: 7, drop_frac: 0.25, delay_frac: 0.0, delay: Duration::ZERO };
        let drops = (0..4000).filter(|&s| p.action(0, s) == FaultAction::Drop).count();
        assert!((800..1200).contains(&drops), "25% of 4000 ≈ 1000, got {drops}");
    }

    #[test]
    fn none_never_injects() {
        let p = NetFaultPlan::none();
        assert!((0..256).all(|s| p.action(3, s) == FaultAction::Deliver));
    }
}
