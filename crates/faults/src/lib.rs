//! Deterministic fault injection for the summation service.
//!
//! A [`FailpointRegistry`] maps *failpoint names* — stable strings baked
//! into the code at I/O seams, like `"server.add.drop_after_apply"` — to
//! an armed [`FaultAction`] plus a [`FireRule`] deciding which hits
//! fire. Production code consults [`check`] at each seam; the harness
//! arms points on the global [`registry`] before a run and asserts on
//! hit/fire counters afterwards.
//!
//! Everything is deterministic for a fixed seed: probabilistic rules
//! draw from a per-failpoint xoshiro stream seeded from
//! `registry seed ⊕ fnv1a64(name)`, so two runs with the same seed, the
//! same armed points, and the same per-connection hit order fire
//! identically — and reordering *other* failpoints cannot perturb a
//! point's private stream. Counter-based rules ([`FireRule::Nth`],
//! [`FireRule::EveryNth`]) do not consume randomness at all, which is
//! what the chaos suite uses when it needs exact, replayable fault
//! schedules.
//!
//! **Cost when disabled:** without the `failpoints` crate feature,
//! [`check`] is a `const`-foldable `None` and every call site compiles
//! to nothing. The registry type itself is always available so harness
//! code can be written (and type-checked) unconditionally.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::prelude::*;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// What an armed failpoint injects when it fires.
///
/// The *site* interprets the action: a connection handler maps
/// [`FaultAction::Disconnect`] to dropping the socket, a snapshot writer
/// maps [`FaultAction::Truncate`] to cutting its serialized bytes. Sites
/// ignore actions they cannot express (arming `Delay` on a pure
/// byte-mangling seam does nothing).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Drop the connection on the floor, mid-conversation.
    Disconnect,
    /// Write only the first `keep` bytes of the pending message, then
    /// drop the connection — a mid-frame disconnect as the peer sees it.
    PartialWrite {
        /// Bytes actually written before the cut.
        keep: usize,
    },
    /// Sleep this many milliseconds before proceeding (drives client
    /// read-timeouts without real network weather).
    Delay {
        /// Injected latency in milliseconds.
        ms: u64,
    },
    /// Truncate the pending byte buffer to `keep` bytes (snapshot seam:
    /// simulates a crash mid-write that beat the atomic rename).
    Truncate {
        /// Bytes surviving the truncation.
        keep: usize,
    },
    /// XOR bit `bit` of byte `offset % len` in the pending byte buffer
    /// (snapshot seam: silent media corruption).
    BitFlip {
        /// Byte offset, reduced modulo the buffer length.
        offset: usize,
        /// Bit index within the byte, 0..8.
        bit: u8,
    },
}

/// Which hits of an armed failpoint actually fire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FireRule {
    /// Every hit fires.
    Always,
    /// Only the first hit fires.
    Once,
    /// Exactly the `n`-th hit fires (1-based).
    Nth(u64),
    /// Hits `n, 2n, 3n, …` fire (1-based).
    EveryNth(u64),
    /// Each hit fires independently with probability `p`, drawn from the
    /// failpoint's private seeded stream.
    Probability(f64),
}

#[derive(Debug)]
struct Failpoint {
    action: FaultAction,
    rule: FireRule,
    rng: StdRng,
    hits: u64,
    fired: u64,
}

impl Failpoint {
    fn check(&mut self) -> Option<FaultAction> {
        self.hits += 1;
        let fire = match self.rule {
            FireRule::Always => true,
            FireRule::Once => self.hits == 1,
            FireRule::Nth(n) => self.hits == n,
            FireRule::EveryNth(n) => n > 0 && self.hits.is_multiple_of(n),
            FireRule::Probability(p) => self.rng.random_bool(p.clamp(0.0, 1.0)),
        };
        if fire {
            self.fired += 1;
            Some(self.action)
        } else {
            None
        }
    }
}

/// FNV-1a 64-bit hash; the cluster's placement hash too.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[derive(Debug, Default)]
struct RegistryState {
    seed: u64,
    points: HashMap<String, Failpoint>,
}

/// A set of named failpoints with deterministic firing.
///
/// Most code uses the process-global [`registry`]; a private instance is
/// only useful for testing the registry itself.
#[derive(Debug, Default)]
pub struct FailpointRegistry {
    state: Mutex<RegistryState>,
}

impl FailpointRegistry {
    /// An empty registry with seed 0.
    pub fn new() -> Self {
        FailpointRegistry::default()
    }

    /// Resets the registry: disarms every failpoint and installs `seed`
    /// as the base for per-failpoint probability streams.
    pub fn reset(&self, seed: u64) {
        let mut s = self.lock();
        s.points.clear();
        s.seed = seed;
    }

    /// Arms (or re-arms, zeroing its counters) the named failpoint.
    pub fn arm(&self, name: &str, rule: FireRule, action: FaultAction) {
        let mut s = self.lock();
        let rng = StdRng::seed_from_u64(s.seed ^ fnv1a64(name.as_bytes()));
        s.points.insert(
            name.to_owned(),
            Failpoint { action, rule, rng, hits: 0, fired: 0 },
        );
    }

    /// Disarms the named failpoint; subsequent hits are free no-ops.
    pub fn disarm(&self, name: &str) {
        self.lock().points.remove(name);
    }

    /// Disarms every failpoint (counters are lost; seed is kept).
    pub fn clear(&self) {
        self.lock().points.clear();
    }

    /// Consults the named failpoint, counting a hit; returns the action
    /// to inject if this hit fires.
    pub fn check(&self, name: &str) -> Option<FaultAction> {
        self.lock().points.get_mut(name)?.check()
    }

    /// Times the named failpoint has been consulted since arming.
    pub fn hits(&self, name: &str) -> u64 {
        self.lock().points.get(name).map_or(0, |p| p.hits)
    }

    /// Times the named failpoint has fired since arming.
    pub fn fired(&self, name: &str) -> u64 {
        self.lock().points.get(name).map_or(0, |p| p.fired)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryState> {
        // A panic while holding the registry lock (a failing chaos
        // assertion) must not wedge every later test: the state is plain
        // data, safe to keep using.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The process-global registry consulted by [`check`].
pub fn registry() -> &'static FailpointRegistry {
    static REGISTRY: OnceLock<FailpointRegistry> = OnceLock::new();
    REGISTRY.get_or_init(FailpointRegistry::new)
}

/// Consults a failpoint on the global [`registry`].
///
/// This is the one call production code makes. With the `failpoints`
/// feature off it is a constant `None` the optimizer deletes along with
/// the `if let` around it.
#[cfg(feature = "failpoints")]
#[inline]
pub fn check(name: &str) -> Option<FaultAction> {
    registry().check(name)
}

/// No-op stub compiled when fault injection is disabled.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn check(_name: &str) -> Option<FaultAction> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_points_never_fire() {
        let r = FailpointRegistry::new();
        assert_eq!(r.check("nope"), None);
        assert_eq!(r.hits("nope"), 0);
    }

    #[test]
    fn counter_rules_fire_exactly_as_scheduled() {
        let r = FailpointRegistry::new();
        r.arm("p", FireRule::Nth(3), FaultAction::Disconnect);
        let fired: Vec<bool> = (0..6).map(|_| r.check("p").is_some()).collect();
        assert_eq!(fired, [false, false, true, false, false, false]);

        r.arm("p", FireRule::EveryNth(2), FaultAction::Disconnect);
        let fired: Vec<bool> = (0..6).map(|_| r.check("p").is_some()).collect();
        assert_eq!(fired, [false, true, false, true, false, true]);

        r.arm("p", FireRule::Once, FaultAction::Disconnect);
        let fired: Vec<bool> = (0..3).map(|_| r.check("p").is_some()).collect();
        assert_eq!(fired, [true, false, false]);
        assert_eq!(r.hits("p"), 3);
        assert_eq!(r.fired("p"), 1);
    }

    #[test]
    fn probability_stream_is_deterministic_per_seed_and_name() {
        let run = |seed: u64| -> Vec<bool> {
            let r = FailpointRegistry::new();
            r.reset(seed);
            r.arm("a", FireRule::Probability(0.5), FaultAction::Disconnect);
            r.arm("b", FireRule::Probability(0.5), FaultAction::Disconnect);
            (0..64).map(|i| r.check(if i % 2 == 0 { "a" } else { "b" }).is_some()).collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));

        // A point's stream is private: arming an unrelated point (or
        // hitting it) must not perturb it.
        let r1 = FailpointRegistry::new();
        r1.reset(7);
        r1.arm("a", FireRule::Probability(0.5), FaultAction::Disconnect);
        let solo: Vec<bool> = (0..32).map(|_| r1.check("a").is_some()).collect();
        let r2 = FailpointRegistry::new();
        r2.reset(7);
        r2.arm("noise", FireRule::Probability(0.9), FaultAction::Disconnect);
        r2.arm("a", FireRule::Probability(0.5), FaultAction::Disconnect);
        for _ in 0..10 {
            r2.check("noise");
        }
        let with_noise: Vec<bool> = (0..32).map(|_| r2.check("a").is_some()).collect();
        assert_eq!(solo, with_noise);
    }

    #[test]
    fn rearming_zeroes_counters() {
        let r = FailpointRegistry::new();
        r.arm("p", FireRule::Always, FaultAction::Delay { ms: 1 });
        assert!(r.check("p").is_some());
        assert_eq!(r.hits("p"), 1);
        r.arm("p", FireRule::Always, FaultAction::Delay { ms: 1 });
        assert_eq!(r.hits("p"), 0);
        r.disarm("p");
        assert_eq!(r.check("p"), None);
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
