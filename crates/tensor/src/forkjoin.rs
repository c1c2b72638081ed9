//! The workspace's one fork-join: set-up (zoo training, pre-evaluation,
//! window and campaign builds, calibration, int8 compile), the scoring
//! calls and `StreamServer::ingest_batch` all run their parallel work
//! here (DESIGN.md §10, "where the threads are").
//!
//! There is one process-wide pool and nothing to configure. The first
//! call worth splitting starts `cores − 1` helper threads; they live as
//! long as the process, spin for 100 µs (`SPIN`) after their last job and
//! then park. A call lends each helper it finds free one of its contexts,
//! works as a worker itself, and takes every helper back before it
//! returns; helpers that are busy (a concurrent call, a call made from
//! inside a task) are simply not counted on, so a call never waits for a
//! thread to come free and, the first apart, never starts one. What is
//! "worth splitting" is decided from the wake cost measured on the ledger
//! host, not from a setting.
//!
//! # The one `unsafe` block
//!
//! A helper outlives every call, so the job a call lends it — a reference
//! to a closure on the caller's stack, borrowing the caller's contexts,
//! task queue and `run` — has its lifetime erased to `'static` on the way
//! (`fork_join_on`). That is sound because the call neither returns nor
//! unwinds before every helper it lent to has either handed the job back
//! untouched or reported that the job has returned: the caller's own
//! share runs under `catch_unwind`, nothing else between the lending and
//! the taking back can panic, and the taking back (`take_back`) waits on
//! each helper's state. No copy of the reference survives the call: the
//! helper takes it off its desk, calls it, and lets go of it before it
//! reports; a desk that still holds it is cleared.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// What lending a job to a parked helper costs the caller on the ledger
/// host (2-core Xeon): the `futex` wake, 10–12 µs for a fork of two empty
/// tasks. A helper that is still spinning costs 0.7 µs.
pub(crate) const WAKE_NS: usize = 10_000;

/// The least work, in estimated nanoseconds, a worker's share must hold
/// before a fork pays: two wakes. A parked helper reaches its first task
/// 45–60 µs into the call (20 µs right after it parked). That is not the
/// caller's loss as a spawned thread's late start was — the caller is a
/// worker too and the tasks are small, so it runs more of them meanwhile
/// — but a call the caller finishes alone by then has paid the wake for
/// nothing: two shares of two wakes are where a fork out of a park breaks
/// even, and out of a spin it wins from a few microseconds up.
pub(crate) const MIN_SHARE_NS: usize = 2 * WAKE_NS;

/// How long a helper spins for its next job before it parks. A serving
/// process forks two to four times a tick, and on the ledger's three
/// serve workloads 99.7 % of the gaps between one fork's end and the
/// next one's start are under 100 µs, back-to-back ticks included
/// (EXPERIMENTS.md, ISSUE 17): the helper stays up through a tick and
/// between ticks of a saturated server, and an idle process burns 100 µs
/// after its last fork and then nothing.
const SPIN: Duration = Duration::from_micros(100);

/// One turn of a wait loop: a pause, and every 64th turn (≈ 4 µs) the
/// rest of the time slice. With more runnable threads than cores —
/// another process, sixteen test threads, a helper the scheduler has put
/// on its caller's core — the thread waited for may be the one waiting
/// for this core; on an idle host the yield returns at once.
fn relax(turns: &mut u32) {
    *turns = turns.wrapping_add(1);
    if turns.is_multiple_of(64) {
        thread::yield_now();
    } else {
        std::hint::spin_loop();
    }
}

/// Locks `mutex` whatever a panic left it in, as the workspace's
/// `parking_lot` does: a panic reaches the caller through a helper's desk
/// (`take_back`), never through a lock.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The cores this process may run on, read once: the affinity query
/// costs ~10 µs.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Worker count for a call estimated at `work_ns` of serial work: as many
/// as keep every share at `MIN_SHARE_NS` or more, at most the cores
/// this process may run on, at least one.
pub fn workers_for(work_ns: usize) -> usize {
    (work_ns / MIN_SHARE_NS).clamp(1, cores())
}

/// Runs `run(context, i, task)` once for every task (`i` counts them in
/// iteration order) on up to `contexts.len()` threads, the caller being
/// one of them, and returns when all are done. Each thread owns one
/// context for the whole call — its scratch — and pulls the next task as
/// it frees up, so put the largest tasks first, and cut the work finer
/// than the thread count: the other threads are the pool's helpers, one
/// per spare context as far as free helpers go, and one that was parked
/// joins ≈ 50 µs into the call. With one context, or no free helper, the
/// tasks run in order on the caller. Callers with no per-thread state
/// pass `&mut [(); N]`.
///
/// The queue is a mutex around the task iterator: the safe form of an
/// atomic task counter, handing out each item exactly once.
///
/// # Panics
///
/// Panics if `contexts` is empty. A panic inside `run` stops the worker
/// it happened on; the others finish the queue, and the first panic is
/// resumed on the caller once every helper is back. Callers that must
/// survive one catch it inside `run`.
pub fn fork_join<C: Send, T>(
    contexts: &mut [C],
    tasks: impl Iterator<Item = T> + Send,
    run: impl Fn(&mut C, usize, T) + Sync,
) {
    static POOL: OnceLock<Vec<Lane>> = OnceLock::new();
    // A call with nothing to lend does not start the pool.
    let lanes: &[Lane] = match contexts.len() {
        0 | 1 => &[],
        _ => POOL.get_or_init(|| start(cores() - 1)),
    };
    fork_join_on(lanes, contexts, tasks, run)
}

/// `f(item)` for every item, in item order, forked when `ns_each` of
/// estimated serial work per item pays for it ([`workers_for`]): for
/// set-up work that is one independent piece per member, vehicle or
/// attack.
pub fn fork_map<T: Send, R: Send>(
    items: impl ExactSizeIterator<Item = T> + Send,
    ns_each: usize,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let mut threads = vec![(); workers_for(items.len() * ns_each)];
    fork_join(&mut threads, items.zip(&mut out), |_, _, (item, slot)| {
        *slot = Some(f(item));
    });
    out.into_iter()
        .map(|r| r.expect("fork_join runs every task"))
        .collect()
}

/// A job as a helper holds it: the lending call's closure, lifetime
/// erased (module docs).
type Job = &'static (dyn Fn() + Sync);

/// What lies on a helper's desk.
enum Desk {
    Empty,
    /// Put there by the caller that claimed the helper.
    Job(Job),
    /// Left by the helper when the job panicked, for the caller to resume.
    Panicked(Box<dyn Any + Send>),
}

/// A helper's state. `FREE → CLAIMED → LENT` is the caller's (claim,
/// fill the desk, publish); `LENT → RUNNING → DONE` the helper's;
/// `LENT → CLAIMED` the caller taking an untouched job back;
/// `DONE | CLAIMED → FREE` the caller letting go. Every transition out
/// of a state another thread may also leave is a compare-exchange, so
/// each has one winner. Stores are `Release` and loads `Acquire`: the
/// helper's `DONE` publishes everything its tasks wrote to the caller
/// that waits for it, the caller's `LENT` its job to the helper.
const FREE: u8 = 0;
const CLAIMED: u8 = 1;
const LENT: u8 = 2;
const RUNNING: u8 = 3;
const DONE: u8 = 4;

struct Helper {
    state: AtomicU8,
    desk: Mutex<Desk>,
}

impl Helper {
    /// The helper thread: wait for a job, run it, report, forever.
    fn serve(&self) {
        loop {
            let spin_until = Instant::now() + SPIN;
            let mut turns = 0;
            loop {
                match self.state.load(Ordering::Acquire) {
                    LENT => {
                        let taken = self.state.compare_exchange(
                            LENT,
                            RUNNING,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        );
                        if taken.is_ok() {
                            break;
                        }
                    }
                    // `unpark` leaves a token when it finds the thread
                    // awake, so a job lent between this load and the
                    // `park` returns it at once; a stale token costs one
                    // more turn of this loop.
                    FREE if Instant::now() >= spin_until => thread::park(),
                    _ => relax(&mut turns),
                }
            }
            let outcome = {
                let desk = std::mem::replace(&mut *lock(&self.desk), Desk::Empty);
                let Desk::Job(job) = desk else {
                    unreachable!("a helper was lent an empty desk")
                };
                panic::catch_unwind(AssertUnwindSafe(job))
            };
            if let Err(payload) = outcome {
                *lock(&self.desk) = Desk::Panicked(payload);
            }
            self.state.store(DONE, Ordering::Release);
        }
    }
}

/// A helper and the handle that wakes it. The handle is kept, never
/// joined: the thread ends with the process.
struct Lane {
    helper: Arc<Helper>,
    handle: JoinHandle<()>,
}

/// Starts up to `helpers` helper threads — fewer when the system refuses
/// a thread, and never more than a call can name in the bits of the
/// `u64` it keeps its claims in.
fn start(helpers: usize) -> Vec<Lane> {
    (0..helpers.min(u64::BITS as usize))
        .filter_map(|i| {
            let helper = Arc::new(Helper {
                state: AtomicU8::new(FREE),
                desk: Mutex::new(Desk::Empty),
            });
            let theirs = Arc::clone(&helper);
            let handle = thread::Builder::new()
                .name(format!("forkjoin-{i}"))
                .spawn(move || theirs.serve());
            Some(Lane {
                helper,
                handle: handle.ok()?,
            })
        })
        .collect()
}

/// [`fork_join`] with the helpers of `lanes`.
fn fork_join_on<C: Send, T>(
    lanes: &[Lane],
    contexts: &mut [C],
    tasks: impl Iterator<Item = T> + Send,
    run: impl Fn(&mut C, usize, T) + Sync,
) {
    let (mine, spare) = contexts
        .split_first_mut()
        .expect("fork_join needs at least the caller's context");
    let queue = Mutex::new(tasks.enumerate());
    let work = |context: &mut C| loop {
        let next = lock(&queue).next();
        let Some((i, task)) = next else { break };
        run(context, i, task);
    };
    if lanes.is_empty() {
        return work(mine);
    }
    let wanted = spare.len();
    let spare = Mutex::new(spare.iter_mut());
    let job = || {
        let context = lock(&spare).next();
        if let Some(context) = context {
            work(context);
        }
    };
    let job: &(dyn Fn() + Sync) = &job;
    // SAFETY: only the lifetime changes. The reference reaches helpers
    // through `lend` alone, and `take_back` below does not return before
    // each of them has given it back untouched or has returned from
    // calling it; between the two, the caller's share runs under
    // `catch_unwind` and nothing else can unwind, so the closure and
    // everything it borrows outlive every use.
    let job = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Job>(job) };
    let lent = lend(lanes, job, wanted);
    let mine = panic::catch_unwind(AssertUnwindSafe(|| work(mine)));
    let theirs = take_back(lanes, lent);
    if let Err(payload) = mine.and(theirs) {
        panic::resume_unwind(payload);
    }
}

/// Lends `job` to up to `wanted` free helpers; returns which, one bit per
/// lane.
fn lend(lanes: &[Lane], job: Job, wanted: usize) -> u64 {
    let mut lent = 0u64;
    for (i, lane) in lanes.iter().enumerate() {
        if lent.count_ones() as usize == wanted {
            break;
        }
        let state = &lane.helper.state;
        let claim = state.compare_exchange(FREE, CLAIMED, Ordering::AcqRel, Ordering::Relaxed);
        if claim.is_ok() {
            *lock(&lane.helper.desk) = Desk::Job(job);
            state.store(LENT, Ordering::Release);
            lane.handle.thread().unpark();
            lent |= 1 << i;
        }
    }
    lent
}

/// Takes every helper of `lent` back: one that has not picked the job up
/// keeps sleeping, one that has is waited for. Returns the first panic a
/// job ended in.
fn take_back(lanes: &[Lane], lent: u64) -> Result<(), Box<dyn Any + Send>> {
    let mut outcome = Ok(());
    for (i, lane) in lanes.iter().enumerate() {
        if lent & (1 << i) == 0 {
            continue;
        }
        let helper = &lane.helper;
        let untouched =
            helper
                .state
                .compare_exchange(LENT, CLAIMED, Ordering::AcqRel, Ordering::Acquire);
        if untouched.is_err() {
            // At most the rest of one task.
            let mut turns = 0;
            while helper.state.load(Ordering::Acquire) != DONE {
                relax(&mut turns);
            }
        }
        let desk = std::mem::replace(&mut *lock(&helper.desk), Desk::Empty);
        if let (Desk::Panicked(payload), Ok(())) = (desk, &outcome) {
            outcome = Err(payload);
        }
        helper.state.store(FREE, Ordering::Release);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::sync::Barrier;
    use std::thread::ThreadId;

    /// A pool of the test's own, so that it has exactly `helpers` of them
    /// whatever the host's core count and whoever else is forking in this
    /// process. Its threads stay parked when the test is over.
    fn private_pool(helpers: usize) -> Vec<Lane> {
        let lanes = start(helpers);
        assert_eq!(lanes.len(), helpers, "the system refused a thread");
        lanes
    }

    #[test]
    fn every_task_runs_exactly_once_for_any_worker_count() {
        for workers in [1usize, 2, 3, 8] {
            for n in [0usize, 1, 2, 7, 40] {
                let mut tasks = vec![0u32; n];
                let mut ran = vec![0usize; workers];
                fork_join(&mut ran, tasks.iter_mut(), |ran, i, t| {
                    *ran += 1;
                    *t += i as u32 + 1;
                });
                let want: Vec<u32> = (1..=n as u32).collect();
                assert_eq!(tasks, want, "{workers} workers, {n} tasks");
                assert_eq!(ran.iter().sum::<usize>(), n);
            }
        }
    }

    #[test]
    fn one_context_stays_on_the_calling_thread() {
        let me = thread::current().id();
        let mut seen: Vec<Option<ThreadId>> = vec![None; 5];
        fork_join(&mut [()], seen.iter_mut(), |_, _, t| {
            *t = Some(thread::current().id())
        });
        assert!(seen.iter().all(|&t| t == Some(me)));
    }

    #[test]
    fn the_caller_is_one_of_the_workers() {
        // Each task waits until both workers have arrived, so the two
        // tasks provably run on two threads at once — and one of them is
        // the caller, because only one helper exists. More contexts than
        // helpers change nothing.
        let lanes = private_pool(1);
        for contexts in [2usize, 5] {
            let barrier = Barrier::new(2);
            let mut seen: Vec<Option<ThreadId>> = vec![None; 2];
            let mut contexts = vec![(); contexts];
            fork_join_on(&lanes, &mut contexts, seen.iter_mut(), |_, _, t| {
                barrier.wait();
                *t = Some(thread::current().id());
            });
            let ids: HashSet<_> = seen.iter().flatten().collect();
            assert_eq!(ids.len(), 2);
            assert!(ids.contains(&thread::current().id()));
        }
    }

    #[test]
    fn a_panic_reaches_the_caller_after_every_helper_stopped() {
        let lanes = private_pool(2);
        let caller = thread::current().id();
        // Three tasks meet at a barrier, so each of the three threads has
        // one. The first to arrive of `panics` (the caller, or the
        // helpers) panics; every other helper lingers — the sleep does
        // not order anything, it gives a call that failed to wait time to
        // show it — and then says it has finished.
        for caller_panics in [true, false] {
            let barrier = Barrier::new(3);
            let panicked = AtomicBool::new(false);
            let finished = AtomicUsize::new(0);
            let call = || {
                fork_join_on(&lanes, &mut [(); 3], 0..3, |_, _, _| {
                    barrier.wait();
                    let on_caller = thread::current().id() == caller;
                    if on_caller == caller_panics && !panicked.swap(true, Ordering::SeqCst) {
                        panic!("task panic");
                    }
                    if !on_caller {
                        thread::sleep(Duration::from_millis(20));
                        finished.fetch_add(1, Ordering::SeqCst);
                    }
                });
            };
            let payload = panic::catch_unwind(AssertUnwindSafe(call)).unwrap_err();
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"task panic"));
            let lingering = if caller_panics { 2 } else { 1 };
            assert_eq!(finished.load(Ordering::SeqCst), lingering);

            // The next call has all three threads again.
            let barrier = Barrier::new(3);
            let mut seen: Vec<Option<ThreadId>> = vec![None; 3];
            fork_join_on(&lanes, &mut [(); 3], seen.iter_mut(), |_, _, t| {
                barrier.wait();
                *t = Some(thread::current().id());
            });
            assert_eq!(seen.iter().flatten().collect::<HashSet<_>>().len(), 3);
        }
    }

    #[test]
    fn a_call_from_inside_a_task_runs_inline() {
        // Both threads are inside a task when each forks again: the only
        // helper is busy, so each inner call runs where it was made.
        let lanes = private_pool(1);
        let barrier = Barrier::new(2);
        let mut inner_ran_here = [false; 2];
        fork_join_on(
            &lanes,
            &mut [(); 2],
            inner_ran_here.iter_mut(),
            |_, _, t| {
                barrier.wait();
                let here = thread::current().id();
                let mut seen: Vec<Option<ThreadId>> = vec![None; 6];
                fork_join_on(&lanes, &mut [(); 2], seen.iter_mut(), |_, _, s| {
                    *s = Some(thread::current().id());
                });
                *t = seen.iter().all(|&s| s == Some(here));
            },
        );
        assert_eq!(inner_ran_here, [true; 2]);

        // On the process's pool, whatever it has: no deadlock.
        let mut sums = [0usize; 4];
        fork_join(&mut [(); 2], sums.iter_mut(), |_, _, sum| {
            let mut parts = [0usize; 10];
            fork_join(&mut [(); 3], parts.iter_mut(), |_, i, p| *p = i + 1);
            *sum = parts.iter().sum();
        });
        assert_eq!(sums, [55; 4]);
    }

    #[test]
    fn concurrent_callers_share_the_pool() {
        // Eight threads fork a thousand times each on the one pool: who
        // gets a helper varies, what is computed does not.
        thread::scope(|scope| {
            for caller in 0..8usize {
                scope.spawn(move || {
                    for call in 0..1000usize {
                        let mut out = [0usize; 9];
                        let mut ran = [0usize; 3];
                        fork_join(&mut ran, out.iter_mut(), |ran, i, o| {
                            *ran += 1;
                            *o = caller * call + i;
                        });
                        let want: [usize; 9] = std::array::from_fn(|i| caller * call + i);
                        assert_eq!(out, want);
                        assert_eq!(ran.iter().sum::<usize>(), 9);
                    }
                });
            }
        });
    }

    #[test]
    fn fork_map_keeps_item_order() {
        let squares = fork_map(0..37usize, MIN_SHARE_NS, |i| i * i);
        assert_eq!(squares, (0..37).map(|i| i * i).collect::<Vec<_>>());
        assert!(fork_map(0..0usize, MIN_SHARE_NS, |i| i).is_empty());
    }

    #[test]
    fn worker_count_follows_the_work_estimate() {
        assert_eq!(workers_for(0), 1);
        assert_eq!(workers_for(2 * MIN_SHARE_NS - 1), 1);
        let many = workers_for(usize::MAX);
        assert!(many >= 1);
        assert_eq!(workers_for(2 * MIN_SHARE_NS), many.min(2));
    }
}
