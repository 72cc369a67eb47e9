//! Progress-event notification: a versioned condition variable whose wakes
//! cost nothing when nobody waits.
//!
//! Every packet deposit and every request completion calls
//! [`Notify::notify`], and most of those calls have nobody to wake: in task
//! mode waiters park through the engine, and in threads mode a waiter that
//! spins briefly (see [`Notify::wait_past`]) usually sees the version move
//! before it ever sleeps. So the notifier skips the condvar — a futex
//! syscall even with no waiter queued — unless an OS thread has registered
//! as a sleeper, and the version is mirrored in an atomic so polling it
//! never takes the lock. DESIGN.md ("Wake path") gives the ordering argument.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use rankmpi_obs::{labels, registry};
use rankmpi_vtime::engine;
use rankmpi_vtime::sched::{self, SchedPoint};
use rankmpi_vtime::Counter;

/// How long a threads-mode waiter polls the version before it sleeps: about
/// one futex sleep+wake pair, measured at 5.6–6.1 µs of wall time per side
/// on the 2-vCPU reference host (condvar round trip 11.3–12.4 µs against a
/// 0.15 µs spin round trip). Spinning no longer than a sleep costs bounds
/// the waste at 2× the best choice made in hindsight.
const SPIN_BUDGET: Duration = Duration::from_micros(6);

/// Version polls between two clock reads of the spin phase (a clock read
/// costs about as much as two polls).
const SPIN_POLLS_PER_CLOCK_READ: usize = 32;

/// OS threads currently running threads-mode rank code (see [`RankThread`]).
static RANK_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Registration of one OS thread that runs threads-mode rank code, held for
/// the thread's lifetime. The count of live registrations gates spinning in
/// [`Notify::wait_past`]: a spinner only helps when the thread it waits for
/// has a core of its own.
#[derive(Debug)]
pub struct RankThread(());

impl RankThread {
    /// Register the calling thread until the returned guard drops.
    pub fn enter() -> Self {
        RANK_THREADS.fetch_add(1, Ordering::Relaxed);
        RankThread(())
    }
}

impl Drop for RankThread {
    fn drop(&mut self) {
        RANK_THREADS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Whether a threads-mode [`Notify::wait_past`] spins before it sleeps:
/// only while the live [`RankThread`]s fit on the host's cores. With more
/// rank threads than cores, the thread a spinner waits for may need the
/// spinner's core to make the progress it is waiting for.
pub fn spin_gate_open() -> bool {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    RANK_THREADS.load(Ordering::Relaxed) <= cores
}

/// A progress-event channel: a versioned condition variable.
///
/// Every packet deposit (and, at the MPI layer, every request completion) bumps
/// the version and wakes waiters. Blocking operations read the version, poll
/// their completion condition, and wait until the version moves — with a
/// timeout so that simulation-level races can never deadlock a test.
#[derive(Debug)]
pub struct Notify {
    /// The version. Bumps, sleeper registration and task-waiter registration
    /// all happen under this lock.
    version: Mutex<u64>,
    /// Mirror of `version`, stored (release) under the lock by every bump:
    /// [`version`](Self::version) and the spin phase read it with one load.
    /// It never runs ahead of the locked value.
    current: AtomicU64,
    cv: Condvar,
    /// OS threads inside `cv.wait_for`: incremented under the version lock
    /// before sleeping, decremented after waking. Zero lets
    /// [`notify`](Self::notify) skip the condvar.
    sleepers: AtomicUsize,
    /// Engine tasks parked until the version moves; registered under the
    /// version lock (so [`notify`](Self::notify) cannot miss them) and
    /// drained by every notification.
    task_waiters: Mutex<Vec<engine::Unparker>>,
    /// Registered-task count, maintained alongside `task_waiters` (incremented
    /// under the version lock, decremented by the drainer). Lets the
    /// common no-waiter notify skip the second lock entirely.
    waiters: AtomicUsize,
    /// Condvar sleeps (slow path only).
    sleeps: Arc<Counter>,
    /// Sleeps that ended by timeout with the version unmoved (slow path only).
    timeouts: Arc<Counter>,
}

impl Default for Notify {
    fn default() -> Self {
        Self::with_counters(Arc::default(), Arc::default())
    }
}

impl Notify {
    /// New notifier at version 0, with unregistered slow-path counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// New notifier whose slow-path counters are registered as
    /// `notify.sleeps{rank}` and `notify.timeouts{rank}` in the global
    /// registry (replacing any series a previous universe left there).
    pub fn registered(rank: usize) -> Self {
        let reg = registry::global();
        let l = || labels! {"rank" => rank};
        Self::with_counters(
            reg.insert_counter("notify.sleeps", l()),
            reg.insert_counter("notify.timeouts", l()),
        )
    }

    fn with_counters(sleeps: Arc<Counter>, timeouts: Arc<Counter>) -> Self {
        Notify {
            version: Mutex::new(0),
            current: AtomicU64::new(0),
            cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            task_waiters: Mutex::new(Vec::new()),
            waiters: AtomicUsize::new(0),
            sleeps,
            timeouts,
        }
    }

    /// Current version (one atomic load; may trail a bump still in progress,
    /// which only makes a following [`wait_past`](Self::wait_past) return
    /// early).
    #[inline]
    pub fn version(&self) -> u64 {
        self.current.load(Ordering::Acquire)
    }

    /// Condvar sleeps taken by [`wait_past`](Self::wait_past) so far.
    pub fn sleeps(&self) -> u64 {
        self.sleeps.get()
    }

    /// Sleeps that expired by timeout with the version unmoved.
    pub fn timeouts(&self) -> u64 {
        self.timeouts.get()
    }

    /// Bump the version and wake all waiters.
    pub fn notify(&self) {
        {
            let mut v = self.version.lock();
            *v += 1;
            self.current.store(*v, Ordering::Release);
        }
        // A sleeper registered under the lock before releasing it in
        // `wait_for`; our acquisition of the same lock came later, so this
        // load sees its registration. Later sleepers see the new version and
        // never sleep — a zero count proves there is nobody to wake.
        if self.sleepers.load(Ordering::Relaxed) != 0 {
            self.cv.notify_all();
        }
        // Waiter-count fast path: a parked task registered under the version
        // lock *before* our bump (later registrants see the moved version and
        // never park), so a zero count here proves there is nobody to wake —
        // the common no-waiter notify pays one atomic load, not a second
        // lock acquisition.
        if self.waiters.load(Ordering::Acquire) != 0 {
            let waiters = std::mem::take(&mut *self.task_waiters.lock());
            self.waiters.fetch_sub(waiters.len(), Ordering::AcqRel);
            for w in waiters {
                w.unpark();
            }
        }
    }

    /// Wait until the version moves past `seen` or `timeout` elapses.
    /// Returns the version observed on wakeup.
    ///
    /// Inside an engine task the thread *parks* instead of sleeping: it
    /// registers an unparker while holding the version lock — a concurrent
    /// [`notify`](Self::notify) either already moved the version (observed
    /// before parking) or will drain the registration — and wakes only when
    /// the version moves, so idle tasks cost zero CPU and no polling
    /// timeout. Under a plain [`sched`] hook the thread yields to the
    /// deterministic scheduler instead (every caller re-polls in a loop).
    ///
    /// On a plain OS thread it polls the version for `SPIN_BUDGET` (6 µs) while
    /// [`spin_gate_open`], then sleeps on the condvar.
    pub fn wait_past(&self, seen: u64, timeout: Duration) -> u64 {
        let v = self.version();
        if v > seen {
            return v;
        }
        if let Some(up) = engine::current_unparker() {
            loop {
                {
                    let v = self.version.lock();
                    if *v > seen {
                        return *v;
                    }
                    self.waiters.fetch_add(1, Ordering::AcqRel);
                    self.task_waiters.lock().push(up.clone());
                }
                engine::park(SchedPoint::NotifyWait);
            }
        }
        if sched::armed() {
            sched::yield_point(SchedPoint::NotifyWait);
            return self.version();
        }
        if spin_gate_open() {
            if let Some(v) = self.spin_past(seen) {
                return v;
            }
        }
        let mut v = self.version.lock();
        if *v > seen {
            return *v;
        }
        self.sleepers.fetch_add(1, Ordering::Relaxed);
        self.sleeps.incr();
        let _ = self.cv.wait_for(&mut v, timeout);
        self.sleepers.fetch_sub(1, Ordering::Relaxed);
        if *v <= seen {
            self.timeouts.incr();
        }
        *v
    }

    /// Poll the version for [`SPIN_BUDGET`]; `Some(version)` once it moves
    /// past `seen`.
    fn spin_past(&self, seen: u64) -> Option<u64> {
        let start = Instant::now();
        loop {
            for _ in 0..SPIN_POLLS_PER_CLOCK_READ {
                std::hint::spin_loop();
                let v = self.version();
                if v > seen {
                    return Some(v);
                }
            }
            if start.elapsed() >= SPIN_BUDGET {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_past_returns_immediately_if_moved() {
        let n = Notify::new();
        n.notify();
        assert_eq!(n.wait_past(0, Duration::from_secs(10)), 1);
        assert_eq!(n.sleeps(), 0);
    }

    #[test]
    fn wait_past_times_out_without_progress() {
        let n = Notify::new();
        let v = n.wait_past(0, Duration::from_millis(10));
        assert_eq!(v, 0);
        assert_eq!((n.sleeps(), n.timeouts()), (1, 1));
    }

    #[test]
    fn sleeper_is_woken_promptly_by_cross_thread_notify() {
        let n = Arc::new(Notify::new());
        let n2 = Arc::clone(&n);
        let t = std::thread::spawn(move || {
            let v = n2.wait_past(0, Duration::from_secs(10));
            (v, Instant::now())
        });
        // Notify only once the waiter is really asleep on the condvar (its
        // sleep is counted under the lock it releases by sleeping), so the
        // wake must come through the sleeper count, not the spin.
        while n.sleeps() == 0 {
            std::thread::yield_now();
        }
        let notified_at = Instant::now();
        n.notify();
        let (v, woke_at) = t.join().unwrap();
        assert_eq!(v, 1);
        let latency = woke_at.saturating_duration_since(notified_at);
        assert!(
            latency < Duration::from_millis(500),
            "sleeper took {latency:?} to wake after notify"
        );
        assert_eq!(n.timeouts(), 0, "the wake must not come from the timeout");
    }

    #[test]
    fn concurrent_sleepers_and_notifiers_lose_no_wakeup() {
        // Every waiter chases the version with a 10 s timeout: a lost wakeup
        // shows up as a counted timeout (and a 10 s stall).
        const ROUNDS: u64 = 2_000;
        let n = Arc::new(Notify::new());
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let n = Arc::clone(&n);
                std::thread::spawn(move || {
                    let mut seen = 0;
                    while seen < ROUNDS {
                        seen = n.wait_past(seen, Duration::from_secs(10));
                    }
                })
            })
            .collect();
        for _ in 0..ROUNDS {
            n.notify();
            if n.version().is_multiple_of(64) {
                std::thread::yield_now();
            }
        }
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(n.timeouts(), 0);
    }

    #[test]
    fn task_waiters_registering_concurrently_with_notify_lose_no_wakeup() {
        // Two workers run a notifier task beside waiter tasks that park and
        // register as they catch up with it. A lost wakeup leaves a waiter
        // parked for good once the notifier finishes, which the engine
        // reports as a deadlock.
        const ROUNDS: u64 = 20_000;
        let n = Arc::new(Notify::new());
        let mut tasks: Vec<engine::TaskFn<'static, ()>> = (0..3)
            .map(|_| {
                let n = Arc::clone(&n);
                Box::new(move || {
                    let mut seen = 0;
                    while seen < ROUNDS {
                        seen = n.wait_past(seen, Duration::from_secs(3600));
                    }
                }) as engine::TaskFn<'static, ()>
            })
            .collect();
        let notifier = Arc::clone(&n);
        tasks.push(Box::new(move || {
            for i in 0..ROUNDS {
                notifier.notify();
                if i.is_multiple_of(16) {
                    std::thread::yield_now();
                }
            }
        }));
        let out = engine::run(
            engine::EngineConfig {
                dispatch: engine::Dispatch::VirtualTime {
                    workers: 2,
                    slack: rankmpi_vtime::Nanos(100),
                },
                step_cap: u64::MAX,
                stack_size: 256 * 1024,
            },
            tasks,
        );
        assert!(out.panic.is_none(), "{:?}", out.panic);
        assert_eq!(n.version(), ROUNDS);
        assert_eq!(n.sleeps(), 0, "tasks park, they never sleep on the condvar");
    }

    #[test]
    fn spin_gate_closes_when_rank_threads_exceed_the_cores() {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let guards: Vec<RankThread> = (0..=cores).map(|_| RankThread::enter()).collect();
        assert!(
            !spin_gate_open(),
            "{} rank threads on {cores} cores",
            cores + 1
        );
        drop(guards);
    }

    #[test]
    fn registered_counters_appear_in_the_registry() {
        let n = Notify::registered(7_777);
        let _ = n.wait_past(0, Duration::from_millis(1));
        let count = |name: &str| {
            registry::global()
                .snapshot_prefix(name)
                .into_iter()
                .find(|s| s.labels.get("rank").map(String::as_str) == Some("7777"))
                .map(|s| s.value)
        };
        assert_eq!(count("notify.sleeps"), Some(registry::Value::Count(1)));
        assert_eq!(count("notify.timeouts"), Some(registry::Value::Count(1)));
    }
}
