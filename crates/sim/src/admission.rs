//! Admission-policy pricing for the multi-job factorization service.
//!
//! `hqr serve` must decide what to do when offered load exceeds pool
//! capacity. This module prices the three classical answers with a
//! Poisson-arrival discrete-event simulation of the service loop:
//!
//! * **queue** — a bounded FIFO with pure backpressure: when the queue is
//!   full, new arrivals are refused (the client retries later). Nothing
//!   already accepted is ever dropped, but every accepted job inherits the
//!   full backlog in its latency.
//! * **shed** — the pool's own policy, priced by running the pool's own
//!   rules (`hqr_runtime::pool_step::step`) in virtual time: bounded queue,
//!   and an arrival that finds it full may displace the newest *strictly
//!   lower-QoS* queued job (otherwise it is refused). Interactive latency
//!   stays flat through saturation at the price of batch completions.
//! * **degrade** — admit everything and oversubscribe the workers: a job
//!   admitted with `n` jobs in the system runs slowed by `max(1, n/c)`
//!   (cache and memory-bandwidth pressure of co-scheduling). No job is
//!   ever refused, but *everyone's* tail stretches once the system tips
//!   past saturation.
//!
//! Arrivals are Poisson with exponential service demands scaled per QoS
//! class (interactive jobs are short, batch jobs long), drawn from a
//! deterministic splitmix64 stream so every report is reproducible.
//! Dispatch is QoS-major FCFS in all arms, the pool's admission order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

use hqr_runtime::fault::splitmix64;
use hqr_runtime::pool_step::{step, Conclusion, Effect, Event, Job, PoolState};
use hqr_runtime::{JobState, JournalEvent, PoolConfig, QosClass};

/// Service QoS mix: class index 0 = batch, 1 = normal, 2 = interactive.
const QOS_SHARE: [f64; 3] = [0.50, 0.35, 0.15];
/// Mean service demand of each class relative to `mean_service`.
const QOS_SCALE: [f64; 3] = [2.0, 1.0, 0.3];

/// Uniform in (0, 1]; never 0 so `ln` stays finite.
fn uniform(state: &mut u64) -> f64 {
    ((splitmix64(state) >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

fn exponential(state: &mut u64, mean: f64) -> f64 {
    -mean * uniform(state).ln()
}

/// The admission policy under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Bounded queue, refuse arrivals when full.
    Queue,
    /// Bounded queue, displace the newest strictly lower-QoS entry.
    Shed,
    /// Unbounded admission with proportional slowdown.
    Degrade,
}

impl AdmissionPolicy {
    /// The three arms in report order.
    pub const ALL: [AdmissionPolicy; 3] =
        [AdmissionPolicy::Queue, AdmissionPolicy::Shed, AdmissionPolicy::Degrade];

    /// Short name for tables.
    pub fn name(self) -> &'static str {
        match self {
            AdmissionPolicy::Queue => "queue",
            AdmissionPolicy::Shed => "shed",
            AdmissionPolicy::Degrade => "degrade",
        }
    }
}

/// Workload and capacity parameters of one simulation run.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Mean arrivals per second (Poisson).
    pub arrival_rate: f64,
    /// Concurrent job slots (the pool's `max_active`).
    pub servers: usize,
    /// Bounded submission-queue capacity (`queue_cap`).
    pub queue_cap: usize,
    /// Mean service demand of a normal-QoS job, seconds.
    pub mean_service: f64,
    /// Number of arrivals to simulate.
    pub jobs: usize,
    /// RNG seed; equal seeds reproduce the identical trace.
    pub seed: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            arrival_rate: 1.0,
            servers: 4,
            queue_cap: 16,
            mean_service: 2.0,
            jobs: 5_000,
            seed: 42,
        }
    }
}

/// What one policy arm did with the offered load.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionReport {
    /// The arm that produced this report.
    pub policy: AdmissionPolicy,
    /// Offered load ρ = λ·E[S]/c.
    pub rho: f64,
    /// Jobs that ran to completion.
    pub completed: usize,
    /// Arrivals refused at the door (backpressure).
    pub rejected: usize,
    /// Accepted jobs later displaced by a higher-QoS arrival.
    pub shed: usize,
    /// Median sojourn (arrival → completion), seconds.
    pub p50: f64,
    /// 99th-percentile sojourn, seconds.
    pub p99: f64,
    /// 99th-percentile sojourn of the interactive class alone.
    pub p99_interactive: f64,
    /// Mean sojourn, seconds.
    pub mean: f64,
}

#[derive(Clone, Copy)]
struct Arrival {
    at: f64,
    qos: usize,
    service: f64,
}

fn draw_arrivals(cfg: &AdmissionConfig) -> Vec<Arrival> {
    let mut state = cfg.seed ^ 0xa077_1e55_0000_0001;
    let mut t = 0.0;
    (0..cfg.jobs)
        .map(|_| {
            t += exponential(&mut state, 1.0 / cfg.arrival_rate.max(1e-12));
            let u = uniform(&mut state);
            let qos = if u < QOS_SHARE[0] {
                0
            } else if u < QOS_SHARE[0] + QOS_SHARE[1] {
                1
            } else {
                2
            };
            let service = exponential(&mut state, cfg.mean_service * QOS_SCALE[qos]);
            Arrival { at: t, qos, service }
        })
        .collect()
}

/// Mean service demand over the QoS mix, E[S].
fn mean_demand(cfg: &AdmissionConfig) -> f64 {
    QOS_SHARE.iter().zip(QOS_SCALE).map(|(share, scale)| share * scale * cfg.mean_service).sum()
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn finish(
    policy: AdmissionPolicy,
    cfg: &AdmissionConfig,
    mut sojourns: Vec<(usize, f64)>,
    rejected: usize,
    shed: usize,
) -> AdmissionReport {
    let mut all: Vec<f64> = sojourns.iter().map(|&(_, s)| s).collect();
    all.sort_by(f64::total_cmp);
    sojourns.retain(|&(qos, _)| qos == 2);
    let mut inter: Vec<f64> = sojourns.into_iter().map(|(_, s)| s).collect();
    inter.sort_by(f64::total_cmp);
    let mean = if all.is_empty() { 0.0 } else { all.iter().sum::<f64>() / all.len() as f64 };
    AdmissionReport {
        policy,
        rho: cfg.arrival_rate * mean_demand(cfg) / cfg.servers.max(1) as f64,
        completed: all.len(),
        rejected,
        shed,
        p50: percentile(&all, 0.50),
        p99: percentile(&all, 0.99),
        p99_interactive: percentile(&inter, 0.99),
        mean,
    }
}

/// Run one policy arm over the configured workload.
pub fn simulate_admission(cfg: &AdmissionConfig, policy: AdmissionPolicy) -> AdmissionReport {
    let arrivals = draw_arrivals(cfg);
    match policy {
        AdmissionPolicy::Degrade => degrade_arm(cfg, &arrivals),
        _ => pool_arm(cfg, &arrivals, policy),
    }
}

/// Fixed-point event ordering.
fn key(t: f64) -> u64 {
    (t * 1e9) as u64
}

/// The bounded-queue arms are the pool itself: its control plane
/// ([`hqr_runtime::pool_step`]) walked through arrivals and completions in
/// virtual time, with no payload. Arrivals are `Submit`s, completions are
/// `Concluded`s, a supervisor `Tick` follows each, and `Activate` effects
/// schedule the completions — so under `Shed` who is shed, who is refused
/// and who runs next are the pool's own decisions, not a copy of them.
/// `Queue` is the counterfactual: the same dispatch behind a door that
/// refuses at `queue_cap` before the pool could shed anything. Servers
/// stay non-preemptive: the tick's QoS preemption (a `Halt` effect) is
/// ignored, there being no price here for the checkpoint round trip.
fn pool_arm(cfg: &AdmissionConfig, arrivals: &[Arrival], arm: AdmissionPolicy) -> AdmissionReport {
    let shedding = arm == AdmissionPolicy::Shed;
    let queue_cap = if shedding { cfg.queue_cap } else { usize::MAX };
    let limits = PoolConfig { queue_cap, max_active: cfg.servers, ..PoolConfig::default() };
    let mut pool = PoolState::<()>::new(limits);
    // Job ids are handed out from 1 in acceptance order.
    let mut accepted: Vec<usize> = Vec::new(); // indices into `arrivals`
    let mut completions: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut sojourns: Vec<(usize, f64)> = Vec::with_capacity(arrivals.len());
    let (mut rejected, mut shed, mut next) = (0usize, 0usize, 0usize);
    loop {
        let arrival_at = arrivals.get(next).map(|a| key(a.at));
        let completion_at = completions.peek().map(|Reverse((t, _))| *t);
        let (now, event) = match (arrival_at, completion_at) {
            (None, None) => break,
            (Some(ta), tc) if tc.is_none_or(|tc| ta < tc) => {
                let a = arrivals[next];
                next += 1;
                let idle = |at| pool.live().filter(|j| j.state == at).count();
                let full = idle(JobState::Queued) >= cfg.queue_cap
                    && idle(JobState::Running) >= cfg.servers;
                if full && !shedding {
                    rejected += 1;
                    continue;
                }
                accepted.push(next - 1);
                let job = Job { qos: QosClass::ALL[a.qos], ..Job::default() };
                (a.at, Event::Submit(Box::new(job), None))
            }
            _ => {
                let Reverse((t, id)) = completions.pop().expect("peeked");
                let (now, a) = (t as f64 / 1e9, arrivals[accepted[id - 1]]);
                sojourns.push((a.qos, now - a.at));
                (now, Event::Concluded(Conclusion { id: id as u64, ..Conclusion::default() }))
            }
        };
        let at = Duration::from_secs_f64(now);
        let mut effects = step(&mut pool, event, at);
        effects.extend(step(&mut pool, Event::Tick(Vec::new()), at));
        for effect in effects {
            match effect {
                Effect::Submitted(Err(_)) => {
                    rejected += 1;
                    accepted.pop();
                }
                Effect::Journal(JournalEvent::Shed { .. }) => shed += 1,
                Effect::Activate(id, _) => {
                    let service = arrivals[accepted[id as usize - 1]].service;
                    completions.push(Reverse((key(now + service), id as usize)));
                }
                _ => {}
            }
        }
    }
    finish(arm, cfg, sojourns, rejected, shed)
}

/// The `Degrade` arm: every arrival starts immediately; a job admitted
/// with `n` jobs already in the system runs `max(1, n/c)` times slower.
fn degrade_arm(cfg: &AdmissionConfig, arrivals: &[Arrival]) -> AdmissionReport {
    let mut completions: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut sojourns: Vec<(usize, f64)> = Vec::with_capacity(arrivals.len());
    for (idx, a) in arrivals.iter().enumerate() {
        while let Some(&Reverse((t, done))) = completions.peek() {
            if t as f64 / 1e9 > a.at {
                break;
            }
            completions.pop();
            sojourns.push((arrivals[done].qos, t as f64 / 1e9 - arrivals[done].at));
        }
        let in_system = completions.len();
        let slowdown = (in_system as f64 / cfg.servers.max(1) as f64).max(1.0);
        completions.push(Reverse((key(a.at + a.service * slowdown), idx)));
    }
    while let Some(Reverse((t, done))) = completions.pop() {
        sojourns.push((arrivals[done].qos, t as f64 / 1e9 - arrivals[done].at));
    }
    finish(AdmissionPolicy::Degrade, cfg, sojourns, 0, 0)
}

/// One sweep point: the offered arrival rate and all three arms' reports.
#[derive(Clone, Copy, Debug)]
pub struct SaturationPoint {
    /// Arrivals per second at this point.
    pub rate: f64,
    /// Reports in [`AdmissionPolicy::ALL`] order.
    pub arms: [AdmissionReport; 3],
}

/// Sweep the arrival rate across `rates`, running all three arms at each
/// point. The interesting read-out is where each arm's p99 (or loss rate)
/// leaves the flat region — the service's saturation knee.
pub fn saturation_sweep(base: &AdmissionConfig, rates: &[f64]) -> Vec<SaturationPoint> {
    rates
        .iter()
        .map(|&rate| {
            let cfg = AdmissionConfig { arrival_rate: rate, ..*base };
            SaturationPoint {
                rate,
                arms: [
                    simulate_admission(&cfg, AdmissionPolicy::Queue),
                    simulate_admission(&cfg, AdmissionPolicy::Shed),
                    simulate_admission(&cfg, AdmissionPolicy::Degrade),
                ],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(rate: f64) -> AdmissionConfig {
        AdmissionConfig { arrival_rate: rate, jobs: 4_000, ..AdmissionConfig::default() }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = simulate_admission(&cfg(1.5), AdmissionPolicy::Shed);
        let b = simulate_admission(&cfg(1.5), AdmissionPolicy::Shed);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.p99.to_bits(), b.p99.to_bits());
    }

    #[test]
    fn light_load_loses_nothing_and_stays_fast() {
        for policy in AdmissionPolicy::ALL {
            let r = simulate_admission(&cfg(0.3), policy);
            assert!(r.rho < 0.25, "rho {}", r.rho);
            assert_eq!(r.rejected + r.shed, 0, "{policy:?} lost jobs under light load");
            assert_eq!(r.completed, 4_000);
            // Sojourn should be close to bare service demand.
            assert!(r.p50 < 4.0 * mean_demand(&cfg(0.3)), "{policy:?} p50 {}", r.p50);
        }
    }

    #[test]
    fn conservation_holds_at_overload() {
        for policy in AdmissionPolicy::ALL {
            let r = simulate_admission(&cfg(6.0), policy);
            assert_eq!(r.completed + r.rejected + r.shed, 4_000, "{policy:?}");
        }
    }

    #[test]
    fn shedding_protects_interactive_latency_at_overload() {
        let hot = cfg(5.0);
        let queue = simulate_admission(&hot, AdmissionPolicy::Queue);
        let shed = simulate_admission(&hot, AdmissionPolicy::Shed);
        let degrade = simulate_admission(&hot, AdmissionPolicy::Degrade);
        assert!(shed.shed > 0, "overload must trigger shedding");
        assert_eq!(degrade.rejected + degrade.shed, 0, "degrade admits everything");
        // The shedding arm keeps the interactive tail at or below the
        // pure-backpressure arm's, which itself beats uncontrolled
        // oversubscription.
        assert!(
            shed.p99_interactive <= queue.p99_interactive * 1.05,
            "shed p99i {} vs queue p99i {}",
            shed.p99_interactive,
            queue.p99_interactive
        );
        assert!(
            degrade.p99 > queue.p99,
            "degrade tail {} should exceed the bounded queue's {}",
            degrade.p99,
            queue.p99
        );
    }

    #[test]
    fn sweep_finds_a_knee() {
        let base = AdmissionConfig { jobs: 2_000, ..AdmissionConfig::default() };
        let points = saturation_sweep(&base, &[0.25, 0.5, 1.0, 2.0, 4.0]);
        assert_eq!(points.len(), 5);
        let shed_rates: Vec<usize> = points.iter().map(|p| p.arms[1].shed).collect();
        assert_eq!(shed_rates[0], 0, "no shedding far below saturation");
        assert!(*shed_rates.last().expect("points") > 0, "overload sheds");
        // rho is monotone in the arrival rate.
        for w in points.windows(2) {
            assert!(w[1].arms[0].rho > w[0].arms[0].rho);
        }
    }
}
