//! Cooperative cancellation and wall-clock deadlines.
//!
//! The runtime never kills a worker thread preemptively — Rust offers no
//! safe way to do that. Instead every supervised job receives a
//! [`CancellationToken`] and is expected to poll it between units of work;
//! a [`Watchdog`] flips the token when a wall-clock deadline expires, which
//! is what turns a hang into a bounded failure.
//!
//! Every watchdog in the process shares one deadline timer: a table of
//! armed deadlines ordered by `(due instant, sequence number)` and a single
//! lazily started thread that cancels each due entry, then sleeps until the
//! earliest remaining deadline. Arming inserts into the table and disarming
//! removes from it, so neither ever spawns, joins or waits on a thread.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, PoisonError};
use std::time::{Duration, Instant};

/// A shareable cancellation flag. Cloning yields another handle to the
/// same flag; cancellation is one-way and permanent.
#[derive(Debug, Clone, Default)]
pub struct CancellationToken {
    flag: Arc<AtomicBool>,
}

impl CancellationToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// Key of one armed deadline: when it is due, plus a sequence number that
/// keeps watchdogs due at the same instant distinct.
type TimerKey = (Instant, u64);

struct TimerTable {
    armed: BTreeMap<TimerKey, CancellationToken>,
    next_seq: u64,
}

/// The process-wide deadline timer every [`Watchdog`] registers with.
struct DeadlineTimer {
    table: Mutex<TimerTable>,
    /// Signalled when a new deadline becomes the earliest one.
    earliest_changed: Condvar,
}

static TIMER: DeadlineTimer = DeadlineTimer {
    table: Mutex::new(TimerTable {
        armed: BTreeMap::new(),
        next_seq: 0,
    }),
    earliest_changed: Condvar::new(),
};
static TIMER_THREAD: Once = Once::new();

impl DeadlineTimer {
    /// The shared timer, with its thread started on first use. The thread
    /// serves the process until exit, so its handle is detached; nothing in
    /// its loop can panic.
    fn get() -> &'static Self {
        TIMER_THREAD.call_once(|| {
            std::thread::Builder::new()
                .name("dlperf-deadline-timer".into())
                .spawn(|| TIMER.run())
                .expect("cannot start the deadline timer thread");
        });
        &TIMER
    }

    fn lock(&self) -> MutexGuard<'_, TimerTable> {
        // Nothing panics while holding the lock; a poisoned table is intact.
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn insert(&self, due: Instant, token: CancellationToken) -> TimerKey {
        let mut table = self.lock();
        let key = (due, table.next_seq);
        table.next_seq += 1;
        let earliest = table
            .armed
            .first_key_value()
            .is_none_or(|(first, _)| key < *first);
        table.armed.insert(key, token);
        drop(table);
        if earliest {
            self.earliest_changed.notify_one();
        }
        key
    }

    fn remove(&self, key: &TimerKey) {
        // A stale wake-up for a removed entry is harmless, so no notify.
        self.lock().armed.remove(key);
    }

    /// The timer thread: cancel every due entry, then sleep until the
    /// earliest remaining deadline or until an earlier one is armed.
    fn run(&self) {
        let mut table = self.lock();
        loop {
            let now = Instant::now();
            while let Some(entry) = table.armed.first_entry() {
                if entry.key().0 > now {
                    break;
                }
                entry.remove().cancel();
            }
            let next_due = table.armed.first_key_value().map(|(&(due, _), _)| due);
            table = match next_due {
                None => self
                    .earliest_changed
                    .wait(table)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(due) => {
                    let woken = self.earliest_changed.wait_timeout(table, due - now);
                    woken.unwrap_or_else(PoisonError::into_inner).0
                }
            };
        }
    }
}

/// Cancels a token when a wall-clock deadline passes.
///
/// Each watchdog is one entry in the process-wide deadline timer. Dropping
/// the watchdog disarms it (the entry is removed without cancelling), so
/// scoping the watchdog to an attempt gives per-attempt hang detection
/// while a longer-lived watchdog bounds the whole run.
#[derive(Debug)]
pub struct Watchdog {
    /// `None` when the deadline lies beyond what [`Instant`] can represent:
    /// such a watchdog never fires.
    key: Option<TimerKey>,
}

impl Watchdog {
    /// Arms a watchdog: after `deadline` elapses, `token` is cancelled.
    /// A deadline too far out to represent as an [`Instant`] never fires.
    pub fn arm(token: CancellationToken, deadline: Duration) -> Self {
        Self::arm_at(token, Instant::now().checked_add(deadline))
    }

    fn arm_at(token: CancellationToken, due: Option<Instant>) -> Self {
        Watchdog {
            key: due.map(|due| DeadlineTimer::get().insert(due, token)),
        }
    }

    /// Disarms the watchdog without cancelling the token.
    pub fn disarm(self) {}
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            TIMER.remove(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_starts_clear_and_cancels_once() {
        let t = CancellationToken::new();
        assert!(!t.is_cancelled());
        let t2 = t.clone();
        t2.cancel();
        assert!(t.is_cancelled(), "clones share the flag");
        t.cancel(); // idempotent
        assert!(t.is_cancelled());
    }

    #[test]
    fn watchdog_fires_after_deadline() {
        let t = CancellationToken::new();
        let _w = Watchdog::arm(t.clone(), Duration::from_millis(10));
        let start = Instant::now();
        while !t.is_cancelled() {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "watchdog never fired"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn disarmed_watchdog_never_fires() {
        let t = CancellationToken::new();
        let w = Watchdog::arm(t.clone(), Duration::from_millis(20));
        w.disarm();
        std::thread::sleep(Duration::from_millis(40));
        assert!(!t.is_cancelled());
    }

    #[test]
    fn unrepresentable_deadline_never_fires() {
        let t = CancellationToken::new();
        let _w = Watchdog::arm(t.clone(), Duration::MAX);
        std::thread::sleep(Duration::from_millis(20));
        assert!(!t.is_cancelled());
    }

    #[test]
    fn earlier_deadline_preempts_a_pending_later_one() {
        let late = CancellationToken::new();
        let _late = Watchdog::arm(late.clone(), Duration::from_secs(60));
        let t = CancellationToken::new();
        let _w = Watchdog::arm(t.clone(), Duration::from_millis(5));
        let start = Instant::now();
        while !t.is_cancelled() {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "earlier deadline never fired"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(!late.is_cancelled());
    }

    #[test]
    fn disarm_returns_promptly() {
        let mut took: Vec<Duration> = (0..20)
            .map(|_| {
                let w = Watchdog::arm(CancellationToken::new(), Duration::from_secs(60));
                std::thread::sleep(Duration::from_millis(1));
                let start = Instant::now();
                w.disarm();
                start.elapsed()
            })
            .collect();
        took.sort();
        let median = took[took.len() / 2];
        assert!(
            median < Duration::from_millis(1),
            "median disarm took {median:?}"
        );
    }

    #[test]
    fn timer_table_fires_kept_entries_on_time_and_never_dropped_ones() {
        const N: usize = 200;
        let base = Instant::now();
        // A fixed shuffle of 1..=50 ms; each offset repeats four times, so
        // several watchdogs share one due instant.
        let due: Vec<Instant> = (0..N)
            .map(|i| base + Duration::from_millis(1 + (i * 37 % N % 50) as u64))
            .collect();
        let tokens: Vec<CancellationToken> = (0..N).map(|_| CancellationToken::new()).collect();
        let mut dogs: Vec<Option<Watchdog>> = tokens
            .iter()
            .zip(&due)
            .map(|(t, &d)| Some(Watchdog::arm_at(t.clone(), Some(d))))
            .collect();
        // Disarm every other watchdog, alternating explicit disarm and drop.
        for (i, dog) in dogs.iter_mut().enumerate().filter(|(i, _)| i % 2 == 1) {
            let dog = dog.take().expect("armed above");
            if i % 4 == 1 {
                dog.disarm();
            } else {
                drop(dog);
            }
        }

        let last = *due.iter().max().expect("non-empty");
        let give_up = last + Duration::from_secs(5);
        loop {
            let fired: Vec<bool> = tokens.iter().map(CancellationToken::is_cancelled).collect();
            let now = Instant::now();
            for (i, &f) in fired.iter().enumerate() {
                if i % 2 == 1 {
                    assert!(!f, "dropped watchdog {i} fired");
                } else if f {
                    assert!(now >= due[i], "watchdog {i} fired before its deadline");
                }
            }
            let kept_all_fired = fired.iter().step_by(2).all(|&f| f);
            if kept_all_fired && now >= last + Duration::from_millis(20) {
                break;
            }
            assert!(now < give_up, "kept watchdogs did not all fire");
            std::thread::sleep(Duration::from_micros(200));
        }

        drop(dogs);
        for (i, t) in tokens.iter().enumerate() {
            assert_eq!(
                t.is_cancelled(),
                i % 2 == 0,
                "token {i} after its watchdog dropped"
            );
        }
    }
}
