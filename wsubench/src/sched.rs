//! Open-loop send schedule and lateness arithmetic.
//!
//! Times are nanosecond offsets from the schedule's origin. Slot `k`
//! is due at `k / rate` seconds, computed from `k` directly so that
//! rounding never accumulates into drift. A request is timed from its
//! due instant, not from when it was actually written, so a stalled
//! generator or server shows up in the latency of every request it
//! delayed; the generator's own lateness (actual send minus due) is
//! reported beside it.

/// Shortest gap the generator sleeps through, and only with no
/// response outstanding; it wakes half of this before the due instant
/// to absorb `thread::sleep`'s overshoot and busy-waits the rest.
/// Shorter gaps are busy-waited whole, polling for responses.
pub const SLEEP_MIN_NS: u64 = 200_000;

/// A fixed-rate schedule.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    rate: f64,
}

impl Schedule {
    /// A schedule sending `rate` requests per second.
    ///
    /// # Panics
    ///
    /// If `rate` is not finite and positive.
    pub fn new(rate: f64) -> Schedule {
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        Schedule { rate }
    }

    /// Due instant of slot `k`, in ns from the origin.
    pub fn due_ns(&self, k: u64) -> u64 {
        (k as f64 * 1e9 / self.rate).round() as u64
    }

    /// Slots due within the first `window_ns` (slot 0 is due at 0).
    pub fn slots_in(&self, window_ns: u64) -> u64 {
        (window_ns as f64 * self.rate / 1e9).ceil() as u64
    }
}

/// How far behind its due instant a send at `sent_ns` was (0 if on
/// time or early).
pub fn lateness_ns(due_ns: u64, sent_ns: u64) -> u64 {
    sent_ns.saturating_sub(due_ns)
}

/// What the generator does at `now_ns` with the next slot due at
/// `due_ns` and `outstanding` responses not yet received.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wait {
    /// The slot is due: send it.
    Send,
    /// Nothing to receive and the slot is far: sleep this long.
    Sleep(u64),
    /// Busy-wait, polling for responses.
    Spin,
}

/// The wait rule. Sleeping or blocking would let this core halt, and
/// waking it (on a virtual machine especially) takes tens of
/// microseconds to milliseconds, which would show up as generator
/// lateness and as late-read responses; so the generator busy-waits
/// the final stretch and sleeps only through long idle gaps.
pub fn wait_plan(now_ns: u64, due_ns: u64, outstanding: usize) -> Wait {
    if now_ns >= due_ns {
        Wait::Send
    } else if outstanding == 0 && due_ns - now_ns >= SLEEP_MIN_NS {
        Wait::Sleep(due_ns - now_ns - SLEEP_MIN_NS / 2)
    } else {
        Wait::Spin
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_instants_do_not_drift() {
        let s = Schedule::new(3.0);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(1), 333_333_333);
        assert_eq!(s.due_ns(2), 666_666_667);
        // A million slots later the schedule is still exact to the ns.
        assert_eq!(s.due_ns(3_000_000), 1_000_000_000_000_000);
        let fast = Schedule::new(24_000.0);
        assert_eq!(fast.due_ns(24_000), 1_000_000_000);
        assert_eq!(fast.slots_in(1_000_000_000), 24_000);
        assert_eq!(fast.slots_in(1_000_000_001), 24_001);
    }

    #[test]
    fn lateness_is_never_negative() {
        assert_eq!(lateness_ns(1_000, 1_250), 250);
        assert_eq!(lateness_ns(1_000, 1_000), 0);
        assert_eq!(lateness_ns(1_000, 900), 0);
    }

    #[test]
    fn sleeps_only_through_long_idle_gaps() {
        assert_eq!(wait_plan(5, 5, 0), Wait::Send);
        assert_eq!(wait_plan(6, 5, 3), Wait::Send);
        // A long gap with nothing outstanding: sleep, leaving half of
        // SLEEP_MIN_NS to spin.
        assert_eq!(
            wait_plan(0, 1_000_000, 0),
            Wait::Sleep(1_000_000 - SLEEP_MIN_NS / 2)
        );
        assert_eq!(wait_plan(0, SLEEP_MIN_NS, 0), Wait::Sleep(SLEEP_MIN_NS / 2));
        // A short gap, or a response outstanding: spin.
        assert_eq!(wait_plan(0, SLEEP_MIN_NS - 1, 0), Wait::Spin);
        assert_eq!(wait_plan(0, 1_000_000, 1), Wait::Spin);
    }
}
