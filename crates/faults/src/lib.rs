//! # dlperf-faults
//!
//! Deterministic fault injection for the simulated DLRM training stack.
//!
//! A performance model is only trustworthy if it degrades gracefully when
//! the world misbehaves: a straggler GPU, a thermally throttled card, a
//! flaky interconnect dropping collectives, a noisy neighbour stealing
//! host cycles. This crate provides the vocabulary for those scenarios:
//!
//! * [`FaultPlan`] — a pure-data, serde-serializable description of which
//!   faults are active and how severe they are. Plans can be stored next
//!   to the experiments that used them and replayed bit-for-bit.
//! * [`FaultInjector`] — turns a plan into concrete decisions. Every
//!   decision is keyed by a *stateless hash* of `(plan seed, site)` — e.g.
//!   `(seed, iteration, collective index, attempt)` — rather than by a
//!   stateful RNG, so outcomes do not depend on call order. Two engines
//!   evaluating the same plan always see the same faults, which is what
//!   makes fault runs bitwise reproducible.
//!
//! The consumers are `dlperf-gpusim` (per-kernel slowdown profiles built
//! by [`FaultInjector::slowdown_profile`]), `dlperf-trace` (host jitter),
//! and `dlperf-distrib` (straggler ranks and the collective
//! timeout/retry/backoff model via [`FaultInjector::collective_outcome`]).

use serde::{Deserialize, Serialize};

use dlperf_gpusim::{KernelFamily, SlowdownProfile, ThermalWindow};

/// A persistently slow rank (e.g. a card with a failing fan or a bad
/// PCIe link): all its kernels run `factor`× slower.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Straggler {
    /// The affected rank.
    pub rank: usize,
    /// Slowdown multiplier (> 1 means slower).
    pub factor: f64,
}

/// Worker-process fault probabilities evaluated per supervised job step.
///
/// Consumed by `dlperf-runtime`'s supervisor: before each step it hashes
/// the site `(job key, step, attempt)` and, with these probabilities,
/// makes the worker panic, die, or hang — exercising panic isolation,
/// restart budgets, and hang watchdogs deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct WorkerFaultPlan {
    /// Probability that a step panics before running.
    pub panic_prob: f64,
    /// Probability that the worker is killed before the step runs.
    pub kill_prob: f64,
    /// Probability that the worker hangs before the step runs (recovered
    /// only by an attempt watchdog).
    pub hang_prob: f64,
}

impl WorkerFaultPlan {
    /// Whether all probabilities are zero.
    pub fn is_healthy(&self) -> bool {
        self.panic_prob == 0.0 && self.kill_prob == 0.0 && self.hang_prob == 0.0
    }
}

/// A worker fault selected at one `(job, step, attempt)` site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkerFault {
    /// The worker panics (caught by the supervisor's `catch_unwind`).
    Panic,
    /// The worker dies without unwinding (supervisor restarts it).
    Kill,
    /// The worker stops making progress (recovered by the hang watchdog).
    Hang,
}

/// Deterministic corruption model for trace-corpus files.
///
/// Consumed by the ingestion chaos harness: for each corpus file it
/// hashes the site `(corpus key, file index)` and, with these
/// probabilities, picks at most one corruption to apply to the file's
/// bytes — exercising the `trace::ingest` scanner's quarantine and
/// skip-budget paths reproducibly, the way worker faults exercise the
/// supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TraceFaultPlan {
    /// Probability that the file is cut short mid-byte-stream (a
    /// crashed writer).
    pub truncate_prob: f64,
    /// Probability that a few bits flip somewhere in the file
    /// (bit rot).
    pub bitflip_prob: f64,
    /// Probability that one event object is duplicated in place
    /// (a replayed log segment; duplicates its correlation id).
    pub duplicate_prob: f64,
    /// Probability that two adjacent events swap positions
    /// (out-of-order flush).
    pub reorder_prob: f64,
    /// Probability that a garbage line is spliced between two events.
    pub garbage_prob: f64,
}

impl TraceFaultPlan {
    /// Whether all probabilities are zero.
    pub fn is_healthy(&self) -> bool {
        self.truncate_prob == 0.0
            && self.bitflip_prob == 0.0
            && self.duplicate_prob == 0.0
            && self.reorder_prob == 0.0
            && self.garbage_prob == 0.0
    }
}

/// Interconnect degradation: a persistently derated link (dust in a
/// connector, a downtrained PCIe lane) plus intermittent "flapping"
/// (an NVLink renegotiating, briefly dropping to a fraction of its
/// bandwidth). Evaluated per `(iteration, collective)` site, so the same
/// plan degrades the same collectives on every replay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkFaultPlan {
    /// Persistent multiplier on every link's bandwidth, in `(0, 1]`
    /// (0.5 = the classic half-bandwidth wire).
    pub bandwidth_factor: f64,
    /// Probability that a given `(iteration, collective)` hits a flap.
    pub flap_prob: f64,
    /// Extra bandwidth multiplier while flapping, in `(0, 1]`.
    pub flap_factor: f64,
}

impl Default for LinkFaultPlan {
    fn default() -> Self {
        LinkFaultPlan {
            bandwidth_factor: 1.0,
            flap_prob: 0.0,
            flap_factor: 1.0,
        }
    }
}

impl LinkFaultPlan {
    /// Whether the plan degrades nothing.
    pub fn is_healthy(&self) -> bool {
        self.bandwidth_factor == 1.0 && (self.flap_prob == 0.0 || self.flap_factor == 1.0)
    }
}

/// A corpus fault selected at one `(corpus, file)` site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceFault {
    /// The file is cut short.
    Truncate,
    /// A few bits are flipped.
    BitFlips,
    /// One event object is duplicated.
    DuplicateEvent,
    /// Two adjacent events swap positions.
    ReorderEvents,
    /// A garbage line is spliced between events.
    GarbageLine,
}

/// A complete, serializable fault scenario.
///
/// The default plan is healthy: no stragglers, no slowdowns, no drops, no
/// jitter. Builder methods add faults; [`FaultPlan::chaos`] builds a
/// scenario whose severity scales with a single intensity knob, which is
/// what the chaos-resilience harness sweeps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for all stochastic fault decisions (dropped collectives).
    pub seed: u64,
    /// Persistently slow ranks.
    pub stragglers: Vec<Straggler>,
    /// Per-kernel-family slowdown multipliers applied on every rank.
    pub kernel_slowdowns: Vec<(KernelFamily, f64)>,
    /// Thermal-throttle windows applied on every rank.
    pub thermal_windows: Vec<ThermalWindow>,
    /// Uniform host-side jitter amplitude (µs) added to dispatch overheads.
    pub host_jitter_us: f64,
    /// Probability that one collective *attempt* times out and must be
    /// retried (clamped to `[0, 1]` when evaluated).
    pub collective_drop_prob: f64,
    /// Cost of one timed-out collective attempt (µs).
    pub collective_timeout_us: f64,
    /// Retries after the first attempt before the collective is declared
    /// dropped.
    pub max_retries: u32,
    /// Base of the exponential backoff added before retry `a`
    /// (`backoff_base_us × 2^a` µs).
    pub backoff_base_us: f64,
    /// Worker-process faults for supervised jobs. `None` means healthy, so
    /// plans serialized before this field existed still deserialize.
    pub worker: Option<WorkerFaultPlan>,
    /// Trace-corpus corruption for ingestion chaos. `None` means healthy,
    /// so plans serialized before this field existed still deserialize.
    pub trace: Option<TraceFaultPlan>,
    /// Interconnect bandwidth degradation. `None` means healthy, so plans
    /// serialized before this field existed still deserialize.
    pub link: Option<LinkFaultPlan>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::healthy(0)
    }
}

impl FaultPlan {
    /// A plan with no faults at all.
    pub fn healthy(seed: u64) -> Self {
        FaultPlan {
            seed,
            stragglers: Vec::new(),
            kernel_slowdowns: Vec::new(),
            thermal_windows: Vec::new(),
            host_jitter_us: 0.0,
            collective_drop_prob: 0.0,
            collective_timeout_us: 1_000.0,
            max_retries: 3,
            backoff_base_us: 50.0,
            worker: None,
            trace: None,
            link: None,
        }
    }

    /// A canonical chaos scenario whose severity scales with `intensity`
    /// in `[0, 1]`: at 0 it is exactly [`FaultPlan::healthy`]; at 1 rank 0
    /// runs 2.5× slow, GEMMs run 1.8× slow everywhere, a throttle window
    /// covers early execution, collectives drop 40% of attempts, and the
    /// host jitters up to 20 µs per overhead sample.
    pub fn chaos(seed: u64, intensity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&intensity),
            "chaos intensity must be in [0, 1], got {intensity}"
        );
        let mut plan = Self::healthy(seed);
        if intensity == 0.0 {
            return plan;
        }
        plan.stragglers.push(Straggler {
            rank: 0,
            factor: 1.0 + 1.5 * intensity,
        });
        plan.kernel_slowdowns
            .push((KernelFamily::Gemm, 1.0 + 0.8 * intensity));
        plan.thermal_windows.push(ThermalWindow {
            start_us: 0.0,
            end_us: 5_000.0 * intensity,
            factor: 1.0 + 0.5 * intensity,
        });
        plan.host_jitter_us = 20.0 * intensity;
        plan.collective_drop_prob = 0.4 * intensity;
        plan.link = Some(LinkFaultPlan {
            bandwidth_factor: 1.0 - 0.4 * intensity,
            flap_prob: 0.3 * intensity,
            flap_factor: 0.5,
        });
        plan
    }

    /// Marks `rank` as a straggler (builder style).
    pub fn with_straggler(mut self, rank: usize, factor: f64) -> Self {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "straggler factor must be positive and finite"
        );
        self.stragglers.push(Straggler { rank, factor });
        self
    }

    /// Adds a thermal-throttle window on every rank (builder style).
    pub fn with_thermal_window(mut self, window: ThermalWindow) -> Self {
        self.thermal_windows.push(window);
        self
    }

    /// Configures the flaky-collective model (builder style).
    pub fn with_collective_faults(
        mut self,
        drop_prob: f64,
        timeout_us: f64,
        max_retries: u32,
        backoff_base_us: f64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&drop_prob),
            "drop probability must be in [0, 1]"
        );
        assert!(
            timeout_us >= 0.0 && backoff_base_us >= 0.0,
            "timeout and backoff must be non-negative"
        );
        self.collective_drop_prob = drop_prob;
        self.collective_timeout_us = timeout_us;
        self.max_retries = max_retries;
        self.backoff_base_us = backoff_base_us;
        self
    }

    /// Configures worker-process faults for supervised jobs (builder
    /// style). Probabilities are independent draws folded into one site
    /// sample; their sum must stay in `[0, 1]`.
    pub fn with_worker_faults(mut self, panic_prob: f64, kill_prob: f64, hang_prob: f64) -> Self {
        for (name, p) in [
            ("panic", panic_prob),
            ("kill", kill_prob),
            ("hang", hang_prob),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "worker {name} probability must be in [0, 1]"
            );
        }
        assert!(
            panic_prob + kill_prob + hang_prob <= 1.0,
            "worker fault probabilities must sum to at most 1"
        );
        self.worker = Some(WorkerFaultPlan {
            panic_prob,
            kill_prob,
            hang_prob,
        });
        self
    }

    /// Configures trace-corpus corruption for ingestion chaos (builder
    /// style). Probabilities are folded into one site sample per file;
    /// their sum must stay in `[0, 1]`.
    pub fn with_trace_faults(mut self, plan: TraceFaultPlan) -> Self {
        for (name, p) in [
            ("truncate", plan.truncate_prob),
            ("bitflip", plan.bitflip_prob),
            ("duplicate", plan.duplicate_prob),
            ("reorder", plan.reorder_prob),
            ("garbage", plan.garbage_prob),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "trace {name} probability must be in [0, 1]"
            );
        }
        assert!(
            plan.truncate_prob
                + plan.bitflip_prob
                + plan.duplicate_prob
                + plan.reorder_prob
                + plan.garbage_prob
                <= 1.0,
            "trace fault probabilities must sum to at most 1"
        );
        self.trace = Some(plan);
        self
    }

    /// Configures interconnect degradation (builder style).
    ///
    /// # Panics
    /// Panics if `bandwidth_factor` or `flap_factor` is outside `(0, 1]`
    /// or `flap_prob` is outside `[0, 1]`.
    pub fn with_link_faults(
        mut self,
        bandwidth_factor: f64,
        flap_prob: f64,
        flap_factor: f64,
    ) -> Self {
        for (name, f) in [("bandwidth", bandwidth_factor), ("flap", flap_factor)] {
            assert!(
                f > 0.0 && f <= 1.0,
                "link {name} factor must be in (0, 1], got {f}"
            );
        }
        assert!(
            (0.0..=1.0).contains(&flap_prob),
            "flap probability must be in [0, 1]"
        );
        self.link = Some(LinkFaultPlan {
            bandwidth_factor,
            flap_prob,
            flap_factor,
        });
        self
    }

    /// Whether the plan injects any fault at all.
    pub fn is_healthy(&self) -> bool {
        self.stragglers.is_empty()
            && self.kernel_slowdowns.is_empty()
            && self.thermal_windows.is_empty()
            && self.host_jitter_us == 0.0
            && self.collective_drop_prob == 0.0
            && self.worker.is_none_or(|w| w.is_healthy())
            && self.trace.is_none_or(|t| t.is_healthy())
            && self.link.is_none_or(|l| l.is_healthy())
    }
}

/// What happened to one collective under the timeout/retry model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CollectiveOutcome {
    /// Attempts made (1 = succeeded first try).
    pub attempts: u32,
    /// Retries after the first attempt (`attempts - 1`).
    pub retries: u32,
    /// Latency added by timeouts and exponential backoff (µs).
    pub added_latency_us: f64,
    /// All attempts timed out: the collective was abandoned after paying
    /// the full retry penalty (the engine degrades instead of hanging).
    pub dropped: bool,
    /// Total time of the collective including penalties (µs).
    pub total_us: f64,
}

/// Process-wide injection counters — totals across every injector
/// instance, surfaced through the `dlperf-obs` recorder. The decisions
/// themselves stay stateless; the counters only observe them.
struct InjectorCounters {
    _group: std::sync::Arc<dlperf_obs::CounterGroup>,
    worker_faults: dlperf_obs::CounterHandle,
    collective_retries: dlperf_obs::CounterHandle,
    collective_drops: dlperf_obs::CounterHandle,
    trace_faults: dlperf_obs::CounterHandle,
    link_faults: dlperf_obs::CounterHandle,
}

fn injector_counters() -> &'static InjectorCounters {
    static G: std::sync::OnceLock<InjectorCounters> = std::sync::OnceLock::new();
    G.get_or_init(|| {
        let group = dlperf_obs::CounterGroup::register(
            "faults.injector",
            &[
                "worker_faults",
                "collective_retries",
                "collective_drops",
                "trace_faults",
                "link_faults",
            ],
        );
        InjectorCounters {
            worker_faults: group.handle("worker_faults"),
            collective_retries: group.handle("collective_retries"),
            collective_drops: group.handle("collective_drops"),
            trace_faults: group.handle("trace_faults"),
            link_faults: group.handle("link_faults"),
            _group: group,
        }
    })
}

/// Turns a [`FaultPlan`] into per-site decisions.
///
/// Stateless by construction: every stochastic decision hashes
/// `(plan.seed, site words)`, so the same plan yields the same faults
/// regardless of how many ranks run, in what order, or on which thread.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
}

/// 64-bit finalizer (SplitMix64 / MurmurHash3 fmix64): a bijective
/// avalanche so consecutive site indices decorrelate fully.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    z = (z ^ (z >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    z ^ (z >> 33)
}

/// Stateless hash of `(seed, site words)` — the scheme behind every
/// injector decision, exported so resumable jobs can derive independent
/// per-unit seeds (e.g. one RNG stream per microbenchmark chunk) that do
/// not depend on execution order or on where a resume happened.
pub fn derive_seed(seed: u64, site: &[u64]) -> u64 {
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
    for &w in site {
        h = mix(h ^ w.wrapping_add(0x9e37_79b9_7f4a_7c15));
    }
    h
}

/// Hashes a textual site name (e.g. a supervised job's name) into one site
/// word, so string-keyed sites compose with [`derive_seed`].
pub fn site_key(name: &str) -> u64 {
    // FNV-1a over the bytes, then the avalanche finalizer.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    mix(h)
}

impl FaultInjector {
    /// Creates an injector for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector { plan }
    }

    /// The underlying plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Deterministic uniform sample in `[0, 1)` keyed by the fault site.
    fn unit(&self, site: &[u64]) -> f64 {
        // 53 high bits → the unit interval, like rand's float conversion.
        (derive_seed(self.plan.seed, site) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Combined straggler multiplier for `rank` (1.0 when healthy).
    pub fn straggler_factor(&self, rank: usize) -> f64 {
        self.plan
            .stragglers
            .iter()
            .filter(|s| s.rank == rank)
            .map(|s| s.factor)
            .product::<f64>()
    }

    /// The slowdown profile `rank`'s GPU should run under: straggler
    /// factor as the global multiplier, plus the plan's per-family
    /// multipliers and thermal windows.
    pub fn slowdown_profile(&self, rank: usize) -> SlowdownProfile {
        SlowdownProfile {
            global: self.straggler_factor(rank),
            per_family: self.plan.kernel_slowdowns.clone(),
            thermal_windows: self.plan.thermal_windows.clone(),
        }
    }

    /// Host-jitter amplitude to install on each rank's engine (µs).
    pub fn host_jitter_us(&self) -> f64 {
        self.plan.host_jitter_us
    }

    /// Evaluates the timeout/retry model for one collective, with no retry
    /// deadline: [`FaultInjector::collective_outcome_with_budget`] with a
    /// budget of `None`.
    ///
    /// Each attempt independently times out with the plan's drop
    /// probability (decided by the stateless site hash over
    /// `(iteration, collective, attempt)`). A timed-out attempt costs
    /// `collective_timeout_us` plus exponential backoff
    /// `backoff_base_us × 2^attempt`. After `max_retries` retries the
    /// collective is declared dropped: the penalty is kept, `dropped` is
    /// set, and the engine continues — degradation, not a hang.
    pub fn collective_outcome(
        &self,
        iteration: u64,
        collective: usize,
        base_us: f64,
    ) -> CollectiveOutcome {
        self.collective_outcome_with_budget(iteration, collective, base_us, None)
    }

    /// Like [`FaultInjector::collective_outcome`], but with an optional
    /// retry deadline: once the accumulated timeout/backoff penalty would
    /// exceed `retry_budget_us` of simulated time, remaining retries are
    /// skipped, the penalty is capped at the budget (the engine waited
    /// exactly until its deadline), and the collective is declared
    /// dropped. A budget of `None` never caps.
    ///
    /// Per-attempt outcomes hash the same sites with or without a budget,
    /// so adding a budget never changes *which* attempts fail — only how
    /// long the engine is willing to keep retrying.
    ///
    /// # Panics
    /// Panics if the budget is negative or not finite.
    pub fn collective_outcome_with_budget(
        &self,
        iteration: u64,
        collective: usize,
        base_us: f64,
        retry_budget_us: Option<f64>,
    ) -> CollectiveOutcome {
        if let Some(b) = retry_budget_us {
            assert!(
                b >= 0.0 && b.is_finite(),
                "retry budget must be non-negative and finite"
            );
        }
        let p = self.plan.collective_drop_prob.clamp(0.0, 1.0);
        let mut added = 0.0;
        let mut attempts = 0u32;
        let mut dropped = true;
        while attempts <= self.plan.max_retries {
            let fails =
                p > 0.0 && self.unit(&[0xC011, iteration, collective as u64, attempts as u64]) < p;
            attempts += 1;
            if !fails {
                dropped = false;
                break;
            }
            let penalty = self.plan.collective_timeout_us
                + self.plan.backoff_base_us * f64::from(1u32 << (attempts - 1).min(20));
            if let Some(budget) = retry_budget_us.filter(|&b| added + penalty >= b) {
                added = budget;
                break;
            }
            added += penalty;
        }
        let outcome = CollectiveOutcome {
            attempts,
            retries: attempts - 1,
            added_latency_us: added,
            dropped,
            total_us: base_us + added,
        };
        record_collective(&outcome);
        outcome
    }

    /// Evaluates the link-degradation model at the stateless site
    /// `(iteration, collective)`: the effective bandwidth multiplier the
    /// interconnect runs at for that collective (persistent derating,
    /// times the flap factor when the site's draw lands inside
    /// `flap_prob`). Returns `None` when no link plan is configured or
    /// the effective factor is exactly 1 — callers treat `None` as "wire
    /// is healthy, price normally".
    pub fn link_degradation(&self, iteration: u64, collective: usize) -> Option<f64> {
        let l = self.plan.link?;
        if l.is_healthy() {
            return None;
        }
        let mut factor = l.bandwidth_factor.clamp(0.0, 1.0);
        let flapping = l.flap_prob > 0.0
            && self.unit(&[0x11CC_FA57, iteration, collective as u64]) < l.flap_prob;
        if flapping {
            factor *= l.flap_factor.clamp(0.0, 1.0);
        }
        if factor < 1.0 {
            injector_counters().link_faults.incr();
            Some(factor)
        } else {
            None
        }
    }

    /// Evaluates the worker-fault model at the stateless site
    /// `(job key, step, attempt)`. Returns the fault to inject before the
    /// step runs, or `None` (the overwhelmingly common case).
    ///
    /// One uniform sample is split across the three probabilities, so a
    /// given site injects at most one fault kind, deterministically.
    pub fn worker_fault(&self, job_key: u64, step: u64, attempt: u32) -> Option<WorkerFault> {
        let w = self.plan.worker?;
        if w.is_healthy() {
            return None;
        }
        let u = self.unit(&[0x3013_57E9, job_key, step, u64::from(attempt)]);
        let (p_panic, p_kill, p_hang) = (
            w.panic_prob.clamp(0.0, 1.0),
            w.kill_prob.clamp(0.0, 1.0),
            w.hang_prob.clamp(0.0, 1.0),
        );
        let fault = if u < p_panic {
            Some(WorkerFault::Panic)
        } else if u < p_panic + p_kill {
            Some(WorkerFault::Kill)
        } else if u < p_panic + p_kill + p_hang {
            Some(WorkerFault::Hang)
        } else {
            None
        };
        if fault.is_some() {
            injector_counters().worker_faults.incr();
        }
        fault
    }

    /// Evaluates the trace-corruption model at the stateless site
    /// `(corpus_key, file_index)`: at most one fault per file, the same
    /// fault every time the site is asked. Returns `None` when no
    /// trace plan is configured or the draw lands on "healthy".
    pub fn trace_fault(&self, corpus_key: u64, file_index: u64) -> Option<TraceFault> {
        let t = self.plan.trace?;
        if t.is_healthy() {
            return None;
        }
        let u = self.unit(&[0x7EAC_E511, corpus_key, file_index]);
        let after_truncate = t.truncate_prob;
        let after_bitflip = after_truncate + t.bitflip_prob;
        let after_duplicate = after_bitflip + t.duplicate_prob;
        let after_reorder = after_duplicate + t.reorder_prob;
        let after_garbage = after_reorder + t.garbage_prob;
        let fault = if u < after_truncate {
            Some(TraceFault::Truncate)
        } else if u < after_bitflip {
            Some(TraceFault::BitFlips)
        } else if u < after_duplicate {
            Some(TraceFault::DuplicateEvent)
        } else if u < after_reorder {
            Some(TraceFault::ReorderEvents)
        } else if u < after_garbage {
            Some(TraceFault::GarbageLine)
        } else {
            None
        };
        if fault.is_some() {
            injector_counters().trace_faults.incr();
        }
        fault
    }

    /// Applies the site's selected fault (if any) to a serialized trace
    /// file in place, returning what was done. Purely deterministic:
    /// the fault kind and every corruption position derive from
    /// `(seed, corpus_key, file_index)`, never from the call sequence.
    ///
    /// Event boundaries are located by the `},{` byte pattern of the
    /// flat event serialization; files too small to carry a structural
    /// fault degrade to truncation so a selected fault never silently
    /// becomes a no-op.
    pub fn mangle_trace_bytes(
        &self,
        corpus_key: u64,
        file_index: u64,
        bytes: &mut Vec<u8>,
    ) -> Option<TraceFault> {
        let fault = self.trace_fault(corpus_key, file_index)?;
        if bytes.len() < 4 {
            return Some(fault);
        }
        let draw =
            |salt: u64| derive_seed(self.plan.seed, &[0x7EAC_E512, corpus_key, file_index, salt]);
        let boundaries: Vec<usize> = bytes
            .windows(3)
            .enumerate()
            .filter_map(|(i, w)| (w == b"},{").then_some(i))
            .collect();
        let truncate = |bytes: &mut Vec<u8>, r: u64| {
            let len = bytes.len();
            let cut = (len / 4 + (r as usize % (len / 2).max(1))).max(1);
            bytes.truncate(cut);
        };
        let applied = match fault {
            TraceFault::Truncate => {
                truncate(bytes, draw(1));
                TraceFault::Truncate
            }
            TraceFault::BitFlips => {
                let flips = 1 + (draw(2) % 4);
                for k in 0..flips {
                    let r = draw(3 + k);
                    let pos = r as usize % bytes.len();
                    let bit = (r >> 32) % 8;
                    bytes[pos] ^= 1 << bit;
                }
                TraceFault::BitFlips
            }
            TraceFault::DuplicateEvent if boundaries.len() >= 2 => {
                let i = draw(8) as usize % (boundaries.len() - 1);
                let (start, end) = (boundaries[i] + 2, boundaries[i + 1]);
                let event: Vec<u8> = bytes[start..=end].to_vec();
                let mut out = Vec::with_capacity(bytes.len() + event.len() + 1);
                out.extend_from_slice(&bytes[..=end]);
                out.push(b',');
                out.extend_from_slice(&event);
                out.extend_from_slice(&bytes[end + 1..]);
                *bytes = out;
                TraceFault::DuplicateEvent
            }
            TraceFault::ReorderEvents if boundaries.len() >= 3 => {
                let i = draw(9) as usize % (boundaries.len() - 2);
                let a: Vec<u8> = bytes[boundaries[i] + 2..=boundaries[i + 1]].to_vec();
                let b: Vec<u8> = bytes[boundaries[i + 1] + 2..=boundaries[i + 2]].to_vec();
                let mut out = Vec::with_capacity(bytes.len());
                out.extend_from_slice(&bytes[..boundaries[i] + 2]);
                out.extend_from_slice(&b);
                out.push(b',');
                out.extend_from_slice(&a);
                out.extend_from_slice(&bytes[boundaries[i + 2] + 1..]);
                *bytes = out;
                TraceFault::ReorderEvents
            }
            TraceFault::GarbageLine if !boundaries.is_empty() => {
                let i = draw(10) as usize % boundaries.len();
                let at = boundaries[i] + 1;
                let garbage = format!("\n<<corrupt segment {:016x}>>\n,", draw(11));
                let mut out = Vec::with_capacity(bytes.len() + garbage.len());
                out.extend_from_slice(&bytes[..at]);
                out.extend_from_slice(garbage.as_bytes());
                out.extend_from_slice(&bytes[at + 1..]);
                *bytes = out;
                TraceFault::GarbageLine
            }
            // Too few events for a structural fault: degrade to
            // truncation so the file is still visibly corrupted.
            TraceFault::DuplicateEvent | TraceFault::ReorderEvents | TraceFault::GarbageLine => {
                truncate(bytes, draw(12));
                TraceFault::Truncate
            }
        };
        Some(applied)
    }
}

/// Mirrors one collective outcome into the injector counters.
fn record_collective(outcome: &CollectiveOutcome) {
    let c = injector_counters();
    c.collective_retries.add(u64::from(outcome.retries));
    if outcome.dropped {
        c.collective_drops.incr();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_plan_injects_nothing() {
        let inj = FaultInjector::new(FaultPlan::healthy(42));
        assert!(inj.plan().is_healthy());
        assert_eq!(inj.straggler_factor(0), 1.0);
        assert!(inj.slowdown_profile(3).is_identity());
        let o = inj.collective_outcome(0, 0, 100.0);
        assert_eq!(o.attempts, 1);
        assert_eq!(o.retries, 0);
        assert!(!o.dropped);
        assert_eq!(o.total_us, 100.0);
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let plan = FaultPlan::healthy(7).with_collective_faults(0.5, 500.0, 4, 25.0);
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan.clone());
        for it in 0..20 {
            for c in 0..3 {
                assert_eq!(
                    a.collective_outcome(it, c, 10.0),
                    b.collective_outcome(it, c, 10.0)
                );
            }
        }
        let other = FaultInjector::new(FaultPlan { seed: 8, ..plan });
        let differs = (0..20)
            .any(|it| a.collective_outcome(it, 0, 10.0) != other.collective_outcome(it, 0, 10.0));
        assert!(
            differs,
            "different seeds should produce different fault patterns"
        );
    }

    #[test]
    fn drop_probability_one_always_drops() {
        let inj =
            FaultInjector::new(FaultPlan::healthy(1).with_collective_faults(1.0, 100.0, 2, 10.0));
        let o = inj.collective_outcome(5, 1, 50.0);
        assert!(o.dropped);
        assert_eq!(o.attempts, 3); // 1 try + 2 retries
                                   // 3 timeouts + backoff 10 + 20 + 40.
        assert!((o.added_latency_us - (300.0 + 70.0)).abs() < 1e-9);
        assert!(o.total_us.is_finite() && o.total_us > 0.0);
    }

    #[test]
    fn higher_drop_prob_means_more_retries() {
        let retries = |p: f64| -> u32 {
            let inj =
                FaultInjector::new(FaultPlan::healthy(3).with_collective_faults(p, 100.0, 5, 10.0));
            (0..200)
                .map(|it| inj.collective_outcome(it, 0, 1.0).retries)
                .sum()
        };
        let (low, high) = (retries(0.1), retries(0.7));
        assert!(high > 2 * low, "retries at p=0.7 ({high}) vs p=0.1 ({low})");
    }

    #[test]
    fn straggler_applies_to_its_rank_only() {
        let inj = FaultInjector::new(FaultPlan::healthy(0).with_straggler(2, 2.5));
        assert_eq!(inj.straggler_factor(2), 2.5);
        assert_eq!(inj.straggler_factor(0), 1.0);
        assert_eq!(inj.slowdown_profile(2).global, 2.5);
        assert!(inj.slowdown_profile(1).is_identity());
    }

    #[test]
    fn chaos_scales_from_healthy() {
        assert!(FaultPlan::chaos(9, 0.0).is_healthy());
        let mild = FaultPlan::chaos(9, 0.2);
        let wild = FaultPlan::chaos(9, 1.0);
        assert!(!mild.is_healthy());
        assert!(wild.collective_drop_prob > mild.collective_drop_prob);
        assert!(wild.host_jitter_us > mild.host_jitter_us);
    }

    #[test]
    fn plan_serde_round_trips() {
        let plan = FaultPlan::chaos(1234, 0.8);
        let json = serde_json::to_string(&plan).expect("plan serializes");
        let back: FaultPlan = serde_json::from_str(&json).expect("plan deserializes");
        assert_eq!(plan, back);
        // Same plan after a round trip ⇒ same decisions.
        let (a, b) = (FaultInjector::new(plan), FaultInjector::new(back));
        assert_eq!(
            a.collective_outcome(3, 2, 7.0),
            b.collective_outcome(3, 2, 7.0)
        );
    }

    #[test]
    #[should_panic(expected = "intensity must be in [0, 1]")]
    fn chaos_rejects_out_of_range_intensity() {
        FaultPlan::chaos(0, 1.5);
    }

    #[test]
    fn worker_faults_are_deterministic_and_cover_all_kinds() {
        let inj = FaultInjector::new(FaultPlan::healthy(11).with_worker_faults(0.2, 0.2, 0.2));
        let key = site_key("grid-search");
        let mut seen = std::collections::BTreeMap::new();
        for step in 0..500u64 {
            let a = inj.worker_fault(key, step, 1);
            let b = inj.worker_fault(key, step, 1);
            assert_eq!(a, b, "same site must give the same decision");
            *seen.entry(format!("{a:?}")).or_insert(0u32) += 1;
        }
        assert!(
            seen.len() == 4,
            "panic, kill, hang and none should all occur: {seen:?}"
        );
        // A retry of the same step is a different site.
        let differs = (0..500).any(|s| inj.worker_fault(key, s, 1) != inj.worker_fault(key, s, 2));
        assert!(differs, "attempt number must feed the site hash");
    }

    #[test]
    fn healthy_worker_plan_never_faults() {
        let inj = FaultInjector::new(FaultPlan::healthy(0));
        assert!((0..100).all(|s| inj.worker_fault(site_key("job"), s, 1).is_none()));
    }

    #[test]
    fn old_plan_json_without_worker_field_still_loads() {
        let json = serde_json::to_string(&FaultPlan::healthy(5)).expect("serializes");
        let legacy = json
            .replace(",\"worker\":null", "")
            .replace(",\"trace\":null", "");
        assert_ne!(json, legacy, "the worker key must have been stripped");
        let back: FaultPlan = serde_json::from_str(&legacy).expect("legacy plan loads");
        assert!(back.worker.is_none());
        assert!(back.trace.is_none());
    }

    fn uniform_trace_plan() -> TraceFaultPlan {
        TraceFaultPlan {
            truncate_prob: 0.2,
            bitflip_prob: 0.2,
            duplicate_prob: 0.2,
            reorder_prob: 0.2,
            garbage_prob: 0.2,
        }
    }

    /// A flat events-array document with enough events for every
    /// structural fault to find its boundaries.
    fn trace_doc(events: usize) -> Vec<u8> {
        let elems: Vec<String> = (0..events)
            .map(|i| {
                format!(
                    "{{\"name\":\"e{i}\",\"ts_us\":{i},\"correlation\":{}}}",
                    i + 1
                )
            })
            .collect();
        format!(
            "{{\"workload\":\"w\",\"events\":[{}],\"span_us\":9}}",
            elems.join(",")
        )
        .into_bytes()
    }

    #[test]
    fn trace_faults_are_deterministic_and_cover_all_kinds() {
        let inj =
            FaultInjector::new(FaultPlan::healthy(17).with_trace_faults(uniform_trace_plan()));
        let key = site_key("corpus");
        let mut seen = std::collections::HashSet::new();
        for file in 0..200 {
            assert_eq!(inj.trace_fault(key, file), inj.trace_fault(key, file));
            let mut a = trace_doc(6);
            let mut b = trace_doc(6);
            let fa = inj.mangle_trace_bytes(key, file, &mut a);
            let fb = inj.mangle_trace_bytes(key, file, &mut b);
            assert_eq!(fa, fb);
            assert_eq!(a, b, "mangling must be bitwise reproducible");
            if let Some(f) = fa {
                assert_ne!(a, trace_doc(6), "a selected fault must change the bytes");
                seen.insert(format!("{f:?}"));
            }
        }
        assert_eq!(seen.len(), 5, "all five fault kinds appear: {seen:?}");
        let other =
            FaultInjector::new(FaultPlan::healthy(18).with_trace_faults(uniform_trace_plan()));
        let differs = (0..200).any(|f| inj.trace_fault(key, f) != other.trace_fault(key, f));
        assert!(differs, "different seeds should corrupt different files");
    }

    #[test]
    fn structural_trace_faults_degrade_to_truncation_on_tiny_files() {
        let plan = TraceFaultPlan {
            duplicate_prob: 1.0,
            ..TraceFaultPlan::default()
        };
        let inj = FaultInjector::new(FaultPlan::healthy(4).with_trace_faults(plan));
        let mut doc = trace_doc(1); // no `},{` boundary at all
        let before = doc.len();
        let applied = inj.mangle_trace_bytes(site_key("c"), 0, &mut doc);
        assert_eq!(applied, Some(TraceFault::Truncate));
        assert!(doc.len() < before);
    }

    #[test]
    fn healthy_trace_plan_never_mangles() {
        let inj = FaultInjector::new(FaultPlan::healthy(9));
        let mut doc = trace_doc(4);
        let pristine = doc.clone();
        assert!(inj.mangle_trace_bytes(site_key("c"), 7, &mut doc).is_none());
        assert_eq!(doc, pristine);
    }

    #[test]
    fn retry_budget_caps_penalty_without_changing_attempt_outcomes() {
        let plan = FaultPlan::healthy(1).with_collective_faults(1.0, 100.0, 4, 10.0);
        let inj = FaultInjector::new(plan);
        let unbudgeted = inj.collective_outcome(2, 0, 50.0);
        assert!(unbudgeted.dropped);
        let no_budget = inj.collective_outcome_with_budget(2, 0, 50.0, None);
        assert_eq!(unbudgeted, no_budget);
        let capped = inj.collective_outcome_with_budget(2, 0, 50.0, Some(150.0));
        assert!(capped.dropped, "budget exhaustion is a drop");
        assert!(
            (capped.added_latency_us - 150.0).abs() < 1e-9,
            "penalty capped at the budget"
        );
        assert!(capped.attempts <= unbudgeted.attempts);
        // A generous budget reproduces the unbudgeted outcome exactly.
        let roomy = inj.collective_outcome_with_budget(2, 0, 50.0, Some(1e9));
        assert_eq!(roomy, unbudgeted);
    }

    #[test]
    fn link_degradation_is_deterministic_and_bounded() {
        let inj = FaultInjector::new(FaultPlan::healthy(21).with_link_faults(0.5, 0.5, 0.5));
        let mut saw_flap = false;
        for it in 0..50 {
            for c in 0..3 {
                let a = inj.link_degradation(it, c);
                assert_eq!(a, inj.link_degradation(it, c), "same site, same factor");
                let f = a.expect("a derated wire always degrades");
                assert!(f == 0.5 || f == 0.25, "factor {f} outside the plan's reach");
                if f == 0.25 {
                    saw_flap = true;
                }
            }
        }
        assert!(
            saw_flap,
            "flap_prob=0.5 over 150 sites must flap at least once"
        );
        assert!(FaultInjector::new(FaultPlan::healthy(21))
            .link_degradation(0, 0)
            .is_none());
        assert!(!FaultPlan::healthy(0)
            .with_link_faults(0.5, 0.0, 1.0)
            .is_healthy());
        assert!(
            FaultPlan::healthy(0)
                .with_link_faults(1.0, 0.5, 1.0)
                .is_healthy(),
            "flapping to full bandwidth degrades nothing"
        );
        assert!(FaultPlan::chaos(3, 0.5).link.is_some());
    }

    #[test]
    #[should_panic(expected = "bandwidth factor must be in (0, 1]")]
    fn link_fault_factor_out_of_range_panics() {
        FaultPlan::healthy(0).with_link_faults(1.5, 0.0, 1.0);
    }

    #[test]
    fn site_key_separates_names() {
        assert_ne!(site_key("grid-search"), site_key("microbench"));
        assert_eq!(site_key("grid-search"), site_key("grid-search"));
        // derive_seed gives distinct streams per site word.
        assert_ne!(derive_seed(7, &[0]), derive_seed(7, &[1]));
        assert_ne!(derive_seed(7, &[0]), derive_seed(8, &[0]));
    }

    #[test]
    #[should_panic(expected = "sum to at most 1")]
    fn worker_fault_probs_must_sum_to_one() {
        FaultPlan::healthy(0).with_worker_faults(0.5, 0.5, 0.5);
    }
}
