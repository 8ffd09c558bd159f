//! A registry of every replacement policy in the workspace.
//!
//! `cargo xtask analyze` and the cross-policy test suites need to
//! instantiate *all* policies uniformly — for the hardware-budget audit,
//! for the [`itpx_policy::CheckedPolicy`] contract drive, and for the
//! name-stability test. This module is the single place that knows how to
//! build each one, so a policy added to the workspace only has to be
//! registered here to be covered by every audit.
//!
//! Stochastic policies are built from fixed seeds; the registry is fully
//! deterministic.

use crate::adaptive::{AdaptiveXptp, XptpSwitch};
use crate::extension::XptpEmissary;
use crate::itp::{Itp, ItpParams};
use crate::xptp::{Xptp, XptpParams};
use itpx_policy::{
    Brrip, CacheMeta, Chirp, Dip, Drrip, Lru, Mockingjay, Policy, PolicyMeta, ProbKeepInstrLru,
    Ptp, RandomEvict, Ship, Srrip, TShip, Tdrrip, TlbMeta, TreePlru,
};

/// Seed used for every stochastic policy the registry builds.
pub const REGISTRY_SEED: u64 = 0x1735_c0de;

/// One registered policy: its stable name, how to size-and-build it, and
/// the policy whose storage it extends (for overhead-over-baseline
/// accounting in the budget audit).
pub struct PolicyEntry<M: PolicyMeta> {
    /// The policy's `name()` — stable across releases, used in reports.
    pub name: &'static str,
    /// Baseline policy (by registry name) the budget audit subtracts to get
    /// the *overhead* this policy adds; `None` for self-contained designs.
    pub baseline: Option<&'static str>,
    /// Geometry constraint: `true` when the policy's tree structure needs a
    /// power-of-two associativity (tree PLRU).
    pub pow2_ways_only: bool,
    /// Builds the policy for a `sets × ways` structure as a trait object
    /// (the form the contract and budget audits drive).
    pub build: fn(usize, usize) -> Box<dyn Policy<M>>,
    /// Builds the same policy into its enum-engine variant — the form the
    /// simulated machine runs. The `engine_equivalence` suite asserts both
    /// constructions decide identically, and `engine_covers_registry` that
    /// none falls back to the engines' `Dyn` escape hatch.
    pub build_engine: fn(usize, usize) -> M::Engine,
}

impl<M: PolicyMeta> PolicyEntry<M> {
    /// Whether this policy can be built at the given associativity.
    pub fn supports_ways(&self, ways: usize) -> bool {
        ways >= 2 && (!self.pow2_ways_only || ways.is_power_of_two())
    }
}

impl<M: PolicyMeta> std::fmt::Debug for PolicyEntry<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyEntry")
            .field("name", &self.name)
            .field("baseline", &self.baseline)
            .finish()
    }
}

/// iTP parameters that satisfy `N < M < ways` for any associativity ≥ 2:
/// Table 1 defaults when they fit, proportionally scaled otherwise.
pub fn itp_params_for(ways: usize) -> ItpParams {
    let d = ItpParams::default();
    if d.m < ways {
        d
    } else {
        let n = ways / 3;
        ItpParams {
            n,
            m: (2 * ways / 3).max(n + 1).min(ways - 1),
            ..d
        }
    }
}

/// xPTP parameters for any associativity: Table 1's `K = 8` capped at the
/// number of ways (strict protection for narrower structures).
pub fn xptp_params_for(ways: usize) -> XptpParams {
    XptpParams {
        k: XptpParams::default().k.min(ways),
    }
}

/// One [`PolicyEntry`] from a single constructor expression over the
/// `sets`/`ways` closure arguments: `build` boxes the concrete policy as
/// a trait object and `build_engine` converts the same concrete policy
/// into its enum variant. `build` deliberately does not box the engine,
/// so `engine_equivalence` compares two independent dispatch paths.
macro_rules! entry {
    ($name:literal, $baseline:expr, $pow2:literal, |$s:tt, $w:tt| $ctor:expr) => {
        PolicyEntry {
            name: $name,
            baseline: $baseline,
            pow2_ways_only: $pow2,
            build: |$s, $w| Box::new($ctor),
            build_engine: |$s, $w| $ctor.into(),
        }
    };
}

/// Every cache replacement policy in the workspace (the Table 2 field, the
/// LLC comparators, and the paper's L2C proposals and extensions).
pub fn cache_policies() -> Vec<PolicyEntry<CacheMeta>> {
    vec![
        entry! { "lru", None, false, |s, w| Lru::new(s, w) },
        entry! { "tree-plru", None, true, |s, w| TreePlru::new(s, w) },
        entry! { "random", None, false, |_, w| RandomEvict::new(w, REGISTRY_SEED) },
        entry! { "srrip", None, false, |s, w| Srrip::new(s, w) },
        entry! { "brrip", None, false, |s, w| Brrip::new(s, w, REGISTRY_SEED) },
        entry! { "drrip", None, false, |s, w| Drrip::new(s, w, REGISTRY_SEED) },
        entry! { "dip", Some("lru"), false, |s, w| Dip::new(s, w, REGISTRY_SEED) },
        entry! { "ship", None, false, |s, w| Ship::new(s, w) },
        entry! { "tship", Some("ship"), false, |s, w| TShip::new(s, w) },
        entry! { "mockingjay", None, false, |s, w| Mockingjay::new(s, w) },
        entry! { "ptp", Some("lru"), false, |s, w| Ptp::new(s, w) },
        entry! { "tdrrip", Some("srrip"), false, |s, w| Tdrrip::new(s, w, REGISTRY_SEED) },
        entry! { "xptp", Some("lru"), false, |s, w| Xptp::new(s, w, xptp_params_for(w)) },
        entry! { "xptp/lru", Some("lru"), false, |s, w| AdaptiveXptp::new(s, w, xptp_params_for(w), XptpSwitch::new()) },
        entry! { "xptp+emissary", Some("lru"), false, |s, w| XptpEmissary::new(s, w, xptp_params_for(w)) },
    ]
}

/// Every TLB replacement policy in the workspace.
pub fn tlb_policies() -> Vec<PolicyEntry<TlbMeta>> {
    vec![
        entry! { "lru", None, false, |s, w| Lru::new(s, w) },
        entry! { "tree-plru", None, true, |s, w| TreePlru::new(s, w) },
        entry! { "random", None, false, |_, w| RandomEvict::new(w, REGISTRY_SEED) },
        entry! { "chirp", Some("lru"), false, |s, w| Chirp::new(s, w) },
        entry! { "prob-keep-instr-lru", Some("lru"), false, |s, w| ProbKeepInstrLru::new(s, w, 0.5, REGISTRY_SEED) },
        entry! { "itp", Some("lru"), false, |s, w| Itp::new(s, w, itp_params_for(w)) },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_match_built_policies() {
        for e in cache_policies() {
            assert_eq!((e.build)(16, 8).name(), e.name);
        }
        for e in tlb_policies() {
            assert_eq!((e.build)(16, 4).name(), e.name);
        }
    }

    #[test]
    fn baselines_resolve_within_the_registry() {
        let cache: Vec<_> = cache_policies();
        for e in &cache {
            if let Some(b) = e.baseline {
                assert!(cache.iter().any(|o| o.name == b), "{}: {b}", e.name);
            }
        }
        let tlb: Vec<_> = tlb_policies();
        for e in &tlb {
            if let Some(b) = e.baseline {
                assert!(tlb.iter().any(|o| o.name == b), "{}: {b}", e.name);
            }
        }
    }

    #[test]
    fn itp_params_fit_small_associativities() {
        for ways in 2..=16 {
            itp_params_for(ways).validate(ways);
        }
    }

    #[test]
    fn xptp_params_fit_small_associativities() {
        for ways in 1..=16 {
            let p = xptp_params_for(ways);
            assert!(p.k >= 1 && p.k <= ways);
        }
    }
}
