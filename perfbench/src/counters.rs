//! Run-scoped layer counters.
//!
//! The metrics registry is process-wide, and per-instance series (one per
//! VCI) are replaced whenever a new universe registers the same key, so a
//! plain before/after difference can mix runs. Each run therefore starts with
//! [`begin`], which clears the registry *before* the run's universe is built
//! and snapshots it; [`Scope::end`] snapshots again and keeps the difference.
//! Counts that the registry does not carry (mailbox ring pushes and spills,
//! payload-pool allocations) are read from the run's own objects with
//! [`Counters::add_universe`].

use std::collections::BTreeMap;

use rankmpi_core::Universe;
use rankmpi_obs::registry::{self, Sample, Value};

/// The counts one run produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    pub matched: u64,
    pub match_scanned: u64,
    pub match_wildcard_scanned: u64,
    pub doorbells: u64,
    pub lock_acquires: u64,
    pub lock_acquires_contended: u64,
    pub ring_pushes: u64,
    pub ring_spills: u64,
    pub pool_fresh_allocs: u64,
    pub pool_reuses: u64,
    pub nic_shared_allocs: u64,
    pub retransmits: u64,
    pub spurious_rexmit: u64,
    pub dups_dropped: u64,
    pub task_switches: u64,
    pub engine_steps: u64,
    pub parked_peak: u64,
}

/// An open counting scope (see [`begin`]).
pub struct Scope {
    before: Vec<Sample>,
}

/// Clear the registry and snapshot it. Call before building the run's
/// universe, so its per-VCI series are the ones the scope sees.
pub fn begin() -> Scope {
    registry::global().reset();
    Scope {
        before: registry::global().snapshot(),
    }
}

impl Scope {
    /// Snapshot again and return the run's counts. For a run whose universe
    /// is at hand, follow with [`Counters::add_universe`].
    pub fn end(self) -> Counters {
        let delta = delta(&self.before, &registry::global().snapshot());
        let get = |name: &str| delta.get(name).copied().unwrap_or(0);
        Counters {
            matched: get("vci.matched"),
            match_scanned: get("vci.match_scanned"),
            match_wildcard_scanned: get("vci.match_wildcard_scanned"),
            doorbells: get("vci.doorbells"),
            lock_acquires: get("vci.lock_acquires"),
            lock_acquires_contended: get("vci.lock_acquires_contended"),
            retransmits: get("resil.retransmits"),
            spurious_rexmit: get("resil.spurious_rexmit"),
            dups_dropped: get("fault.dups_dropped"),
            task_switches: get("engine.task_switches"),
            engine_steps: get("engine.steps"),
            parked_peak: get("engine.parked"),
            ..Counters::default()
        }
    }
}

/// Per-name difference of two snapshots, summed over labels. Counters give
/// their increase; accumulators give the largest sample recorded in the
/// scope (the engine records one peak per run).
fn delta(before: &[Sample], after: &[Sample]) -> BTreeMap<String, u64> {
    let old: BTreeMap<String, &Value> = before.iter().map(|s| (s.key(), &s.value)).collect();
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for s in after {
        let d = match (&s.value, old.get(&s.key())) {
            (Value::Count(n), Some(Value::Count(m))) => n.saturating_sub(*m),
            (Value::Count(n), _) => *n,
            (Value::Stats { count, max, .. }, prev) => {
                let prev_count = match prev {
                    Some(Value::Stats { count, .. }) => *count,
                    _ => 0,
                };
                if *count > prev_count {
                    max.unwrap_or(0)
                } else {
                    0
                }
            }
        };
        let e = out.entry(s.name.clone()).or_default();
        *e = if matches!(s.value, Value::Stats { .. }) {
            (*e).max(d)
        } else {
            *e + d
        };
    }
    out
}

impl Counters {
    /// Add the counts kept only on the run's own objects: every VCI's
    /// mailbox and payload pool, and every NIC's context pool. The VCI
    /// matching and doorbell counts are read from the VCIs directly, and
    /// must agree with the registry's.
    pub fn add_universe(&mut self, u: &Universe) {
        let s = u.shared();
        let mut direct = (0u64, 0u64, 0u64, 0u64);
        for r in 0..s.n_procs() {
            let proc = s.proc(r);
            for v in 0..proc.num_vcis() {
                let vci = proc.vci(v);
                self.ring_pushes += vci.mailbox().ring_pushes();
                self.ring_spills += vci.mailbox().ring_spills();
                self.pool_fresh_allocs += vci.payload_pool().fresh_allocs();
                self.pool_reuses += vci.payload_pool().reuses();
                direct.0 += vci.matched();
                direct.1 += vci.match_scanned();
                direct.2 += vci.match_wildcard_scanned();
                direct.3 += vci.doorbells();
            }
        }
        for n in 0..s.n_nodes() {
            self.nic_shared_allocs += s.nic(n).shared_allocs();
        }
        let from_registry = (
            self.matched,
            self.match_scanned,
            self.match_wildcard_scanned,
            self.doorbells,
        );
        assert_eq!(
            direct, from_registry,
            "VCI getters and the run-scoped registry disagree"
        );
    }

    /// Mailbox pushes that spilled to the locked queue, as a share of all
    /// ring-path pushes.
    pub fn spill_share(&self) -> f64 {
        ratio(self.ring_spills, self.ring_pushes + self.ring_spills)
    }

    /// Payload allocations that were fresh rather than reused.
    pub fn fresh_alloc_share(&self) -> f64 {
        ratio(
            self.pool_fresh_allocs,
            self.pool_fresh_allocs + self.pool_reuses,
        )
    }
}

/// `num / den`, or zero when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
