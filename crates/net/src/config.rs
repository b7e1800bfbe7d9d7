//! Transport configuration for a node or a whole runtime.

use crate::fault::FaultPlan;
use crate::link::LinkConfig;

/// Transport tuning for a node or a whole runtime.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Per-link reliability knobs (timeouts, window, burst).
    pub link: LinkConfig,
    /// Fault injection schedule ([`FaultPlan::none`] in production).
    pub faults: FaultPlan,
    /// Seed for the non-fault randomness: retransmit jitter and dial
    /// backoff jitter (mixed with link identity per stream).
    pub seed: u64,
    /// Initial dial/reconnect backoff in ms.
    pub dial_backoff_ms: u64,
    /// Cap for the dial/reconnect exponential backoff in ms.
    pub dial_backoff_max_ms: u64,
    /// Wall-clock safety deadline for a driven run, in ms.
    pub deadline_ms: u64,
    /// Poller pool size; `0` means auto (`min(4, available cores)`).
    pub poller_threads: usize,
}

impl NetConfig {
    /// The poller pool size after resolving the `0 = auto` default.
    pub fn resolved_poller_threads(&self) -> usize {
        if self.poller_threads != 0 {
            return self.poller_threads;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(4)
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            link: LinkConfig::default(),
            faults: FaultPlan::none(),
            seed: 0,
            dial_backoff_ms: 10,
            dial_backoff_max_ms: 500,
            deadline_ms: 30_000,
            poller_threads: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poller_threads_resolve_auto_and_explicit() {
        let auto = NetConfig::default();
        let t = auto.resolved_poller_threads();
        assert!((1..=4).contains(&t), "auto pool size {t} out of range");
        let fixed = NetConfig {
            poller_threads: 2,
            ..NetConfig::default()
        };
        assert_eq!(fixed.resolved_poller_threads(), 2);
    }
}
