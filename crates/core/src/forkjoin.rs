//! The one fork-join the scoring calls and `StreamServer::ingest_batch`
//! share (DESIGN.md §10, "where the threads are").
//!
//! There is no pool and nothing to configure: a call that is worth
//! splitting spawns `workers − 1` scoped threads, the caller works as the
//! last worker, and everyone is joined before the call returns. What is
//! "worth splitting" is decided from the spawn cost measured on the
//! ledger host, not from a setting.

use parking_lot::Mutex;
use std::sync::OnceLock;

/// What one scoped spawn + join of an idle thread costs the caller on
/// the ledger host (2-core Xeon): 16–18 µs back to back, ~25 µs with the
/// woken core cold.
pub const SPAWN_NS: usize = 25_000;

/// The least work, in estimated nanoseconds, a worker's share must hold
/// before a fork pays: four spawns. The spawn is the smaller part of the
/// price — the new thread reaches a core 30–130 µs after the caller has
/// started working (same host, measured) — so a share has to outlast
/// that for the second core to contribute at all: `ingest_batch` on
/// 500 BSMs (≈ 120 µs in all) measured slower forked than serial.
pub const MIN_SHARE_NS: usize = 4 * SPAWN_NS;

/// Worker count for a call estimated at `work_ns` of serial work: as many
/// as keep every share at [`MIN_SHARE_NS`] or more, at most the cores
/// this process may run on (read once: the affinity query costs ~10 µs),
/// at least one.
pub fn workers_for(work_ns: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    (work_ns / MIN_SHARE_NS).clamp(1, cores)
}

/// Runs `run(context, i, task)` once for every task (`i` counts them in
/// iteration order) on `contexts.len()` threads, the caller being one of
/// them, and returns when all are done. Each thread owns one context for
/// the whole call — its scratch — and pulls the next task as it frees
/// up, so put the largest tasks first, and cut the work finer than the
/// thread count when a late starter should not hold everyone up (a
/// freshly spawned thread can take 30–130 µs to reach a core here). With
/// one context nothing is spawned and the tasks run in order on the
/// caller. Callers with no per-thread state pass `&mut [(); N]`.
///
/// The queue is a mutex around the task iterator: the safe form of an
/// atomic task counter, handing out each item exactly once.
///
/// # Panics
///
/// Panics if `contexts` is empty. A panic inside `run` propagates to the
/// caller once every worker has stopped; callers that must survive one
/// catch it inside `run`.
pub fn fork_join<C: Send, T>(
    contexts: &mut [C],
    tasks: impl Iterator<Item = T> + Send,
    run: impl Fn(&mut C, usize, T) + Sync,
) {
    let (mine, spawned) = contexts
        .split_first_mut()
        .expect("fork_join needs at least the caller's context");
    let queue = Mutex::new(tasks.enumerate());
    let work = |context: &mut C| loop {
        let next = queue.lock().next();
        let Some((i, task)) = next else { break };
        run(context, i, task);
    };
    if spawned.is_empty() {
        return work(mine);
    }
    let work = &work;
    std::thread::scope(|scope| {
        for context in spawned {
            scope.spawn(move || work(context));
        }
        work(mine);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::ThreadId;

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
        let me = std::thread::current().id();
        let mut seen: Vec<Option<ThreadId>> = vec![None; 5];
        fork_join(&mut [()], seen.iter_mut(), |_, _, t| {
            *t = Some(std::thread::current().id())
        });
        assert!(seen.iter().all(|&t| t == Some(me)));
    }

    #[test]
    fn the_caller_is_one_of_the_workers() {
        // Each task waits until both workers have arrived, so the two
        // tasks provably run on two threads at once — and one of them is
        // the caller, because only one thread was spawned.
        let barrier = std::sync::Barrier::new(2);
        let mut seen: Vec<Option<ThreadId>> = vec![None; 2];
        fork_join(&mut [(); 2], seen.iter_mut(), |_, _, t| {
            barrier.wait();
            *t = Some(std::thread::current().id());
        });
        let ids: HashSet<_> = seen.iter().flatten().collect();
        assert_eq!(ids.len(), 2);
        assert!(ids.contains(&std::thread::current().id()));
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
