//! Injectable time source for the serving layer.
//!
//! The engine reads the time for two things only: the latency counters
//! (submission to resolution) and the fleet's LRU access stamps. Neither
//! decides *when* a shot is classified — pool workers drain whatever is
//! queued as soon as they are free — so [`Clock`] is just "what time is
//! it". Production code runs on [`WallClock`]; tests drive a
//! [`ManualClock`] whose time only moves when the test says so, which
//! makes every latency and every eviction victim exact.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use super::lock_recovering;

/// A monotonic time source the serving engine reads instead of
/// [`Instant::now`] — injectable so tests control latencies and LRU
/// stamps.
pub trait Clock: Send + Sync + std::fmt::Debug + 'static {
    /// Time elapsed since the clock's (arbitrary) epoch.
    fn now(&self) -> Duration;
}

/// The production clock: [`Instant`] anchored at construction.
#[derive(Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A wall clock whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }
}

/// A test clock that only moves when told to.
///
/// Engines built with [`crate::ReadoutEngine::with_clock`] stamp
/// submissions, resolutions and LRU accesses from it, so a test that
/// [`ManualClock::advance`]s between two submissions reads exact
/// latencies and an exact eviction order — with no real sleeping
/// anywhere.
///
/// # Examples
///
/// ```
/// use mlr_core::engine::{Clock, ManualClock};
/// use std::time::Duration;
///
/// let clock = ManualClock::new();
/// assert_eq!(clock.now(), Duration::ZERO);
/// clock.advance(Duration::from_micros(250));
/// assert_eq!(clock.now(), Duration::from_micros(250));
/// ```
#[derive(Debug, Default)]
pub struct ManualClock {
    now: Mutex<Duration>,
}

impl ManualClock {
    /// A frozen clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves time forward by `step`.
    pub fn advance(&self, step: Duration) {
        *lock_recovering(&self.now) += step;
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Duration {
        *lock_recovering(&self.now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic() {
        let clock = WallClock::new();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }
}
